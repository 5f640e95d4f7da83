package check

// The verification protocol as a RoundProgram. The engine's activation
// mask (if any) shapes what it sees: a SendAll reaches only live
// neighbors, so every probe is relative to the live subgraph. The report
// is written by the run's Reporter node (the lowest stepped id) rather
// than node 0, so the protocol also works under active-set execution —
// the dynamic Maintainer restricts audits to the endpoints of live edges,
// a set no live edge can cross, which leaves messages, rounds and
// outcomes bit-identical to a full sweep.

import (
	"distmatch/internal/core"
	"distmatch/internal/dist"
)

// checker stages, named for the barrier each OnRound consumes.
const (
	ckClaims  uint8 = iota // handshake claims delivered
	ckValid                // validity OR delivered
	ckFree                 // free flags delivered
	ckMaximal              // maximality OR delivered
	ckBFS                  // inside one counting BFS (ell rounds)
	ckProbe                // leader OR of the finished BFS delivered
)

type checker struct {
	matchedEdge []int32
	probeLen    int
	rep         *Report

	stage uint8
	me    int32
	bad   bool
	free  bool
	found bool
	ell   int
	mport int
	side  int
	bfs   core.CountLeadersMachine
}

func (c *checker) Init(nd *dist.Node) bool {
	c.me = c.matchedEdge[nd.ID()]

	// Round 1: handshake. Everyone tells every neighbor which edge
	// (if any) it believes it is matched on.
	nd.SendAll(edgeClaim{edge: c.me})
	if c.me != -1 {
		// My edge must be incident to me — and live: a dead matched
		// edge cannot be caught by the cross-check, because no message
		// crosses it.
		found := false
		for p := 0; p < nd.Deg(); p++ {
			if int32(nd.EdgeID(p)) == c.me {
				found = nd.EdgeLive(p)
			}
		}
		if !found {
			c.bad = true
		}
	}
	c.stage = ckClaims
	return true
}

func (c *checker) OnRound(nd *dist.Node, in []dist.Incoming) bool {
	switch c.stage {
	case ckClaims:
		for _, d := range in {
			claim := d.Msg.(edgeClaim).edge
			myEdgeHere := int32(nd.EdgeID(d.Port))
			// If the neighbor claims the shared edge, I must claim it
			// too, and vice versa.
			if (claim == myEdgeHere) != (c.me == myEdgeHere) {
				c.bad = true
			}
		}
		nd.SubmitOr(c.bad)
		c.stage = ckValid
		return true

	case ckValid:
		if nd.Reporter() {
			c.rep.Valid = !nd.GlobalOr()
		}
		// Rounds 2-3: maximality probe. Free nodes raise a flag; a free
		// node seeing a free neighbor reports a violation.
		c.free = c.me == -1
		if c.free {
			nd.SendAll(freeFlag{})
		}
		c.stage = ckFree
		return true

	case ckFree:
		violation := false
		for _, d := range in {
			if _, ok := d.Msg.(freeFlag); ok && c.free {
				violation = true
			}
		}
		nd.SubmitOr(violation)
		c.stage = ckMaximal
		return true

	case ckMaximal:
		if nd.Reporter() {
			c.rep.Maximal = !nd.GlobalOr()
		}
		// Berge probe (bipartite only): run the counting BFS for
		// ℓ = 1, 3, …, probeLen; the first ℓ with a leader is the
		// shortest augmenting path length.
		if c.probeLen <= 0 || !nd.Bipartite() {
			return false
		}
		c.mport = -1
		if c.me != -1 {
			for p := 0; p < nd.Deg(); p++ {
				if int32(nd.EdgeID(p)) == c.me {
					c.mport = p
				}
			}
		}
		c.side = nd.Side()
		c.ell = 1
		c.bfs.Reset(c.mport, c.side, c.ell)
		c.bfs.Start(nd)
		c.stage = ckBFS
		return true

	case ckBFS:
		if !c.bfs.OnRound(nd, in) {
			return true
		}
		nd.SubmitOr(c.bfs.Leader() && !c.found)
		c.stage = ckProbe
		return true

	default: // ckProbe
		if nd.GlobalOr() && !c.found {
			c.found = true
			if nd.Reporter() {
				c.rep.ShortestAug = c.ell
			}
		}
		c.ell += 2
		if c.ell <= c.probeLen {
			c.bfs.Reset(c.mport, c.side, c.ell)
			c.bfs.Start(nd)
			c.stage = ckBFS
			return true
		}
		if nd.Reporter() && !c.found {
			c.rep.ShortestAug = -1
		}
		return false
	}
}

// program is the factory the entry points hand to RunFlat.
func program(matchedEdge []int32, probeLen int, rep *Report) func(nd *dist.Node) dist.RoundProgram {
	return func(*dist.Node) dist.RoundProgram {
		return &checker{matchedEdge: matchedEdge, probeLen: probeLen, rep: rep}
	}
}
