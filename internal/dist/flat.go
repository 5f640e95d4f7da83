package dist

import "distmatch/internal/graph"

// This file is the engine's program interface and its worker sweep: node
// programs are RoundProgram state machines that the chunk workers step
// with a plain interface call per node-round.

// RoundProgram is a node program in state-machine form: the per-round
// logic of the synchronous model as a function of (state, inbox). The
// engine calls Init once in round 0 and OnRound once per subsequent round,
// always from the node's owning worker, so a method body has exclusive
// access to its Node.
//
// Init is the node's first segment; each OnRound call is one "process the
// inbox, compute, send" segment between two barriers. Returning true
// parks the node at the round barrier; returning false ends the program
// (sends made in that final call are still delivered). The in slice is
// only valid until the node's next OnRound: it aliases a per-node buffer
// the next round overwrites in place. Copy entries that must outlive the
// round.
//
// Oracle rounds come in two halves: calling Node.SubmitOr/SubmitMax (at
// most one, once) before returning true marks the ending round as an
// oracle round, and the global result is read with Node.GlobalOr/
// GlobalMax at the start of the next OnRound. All continuing nodes must
// agree: a round in which some submit and others don't, or some submit to
// the OR and others to the max, is a desync and panics.
type RoundProgram interface {
	// Init runs the program's first segment (round 0): it may Send and
	// may Submit. It reports whether the node continues into round 1.
	Init(nd *Node) (again bool)
	// OnRound consumes the messages delivered by the round that just
	// ended and runs the next segment. It reports whether the node
	// continues into another round.
	OnRound(nd *Node, in []Incoming) (again bool)
}

// RunFlat simulates one RoundProgram per node of g in synchronous rounds
// and returns the aggregate cost once every program has finished. factory
// is called once per node (per active node under Config.ActiveSet), in
// increasing id order before round 0, and should only allocate the
// machine and read node geometry (ID/Deg/N/ports); sends and RNG draws
// belong in Init. A panic inside Init/OnRound aborts the run and
// re-panics with the same value in the caller.
func RunFlat(g *graph.Graph, cfg Config, factory func(nd *Node) RoundProgram) *Stats {
	tel, tstart := telStart()
	var st Stats
	completed := false
	defer func() { tel.record(tstart, &st, completed) }()
	e := newEngine(g, cfg)
	if e.n != 0 {
		e.forEachActive(func(nd *Node) { e.progs[nd.id] = factory(nd) })
		defer e.close()
		e.loop()
	}
	// Return a copy: callers routinely retain the Stats, and a pointer
	// into the engine would pin its O(n+m) slabs for that lifetime.
	st = e.stats
	completed = true
	return &st
}

// SubmitOr submits this node's value to a global-OR oracle round ending
// with the current segment — the convergence oracle. The result is
// available from GlobalOr in the next OnRound. At most one Submit per
// segment; counted in Stats.OracleCalls.
func (nd *Node) SubmitOr(local bool) {
	w := nd.wk
	w.orCnt++
	w.or = w.or || local
}

// SubmitMax submits this node's value to a global-max oracle round
// (identity -Inf). The result is available from GlobalMax in the next
// OnRound.
func (nd *Node) SubmitMax(local float64) {
	w := nd.wk
	w.maxCnt++
	if local > w.max {
		w.max = local
	}
}

// GlobalOr returns the global OR aggregated at the last SubmitOr barrier.
func (nd *Node) GlobalOr() bool { return nd.eng.orGlobal }

// GlobalMax returns the global max aggregated at the last SubmitMax
// barrier.
func (nd *Node) GlobalMax() float64 { return nd.eng.maxGlobal }

// flatSweep steps every live RoundProgram of the chunk once: round 0 runs
// Init, later rounds drain the node's mailbox and run OnRound — one
// interface call per node-round.
//
// Panic handling is chunk-scoped rather than per-node (a deferred recover
// per step would tax the hot loop): the first panicking node aborts the
// rest of its chunk's sweep, which is safe because the engine aborts the
// whole run as soon as any worker reports a panic. Lowest-id-wins is
// preserved — the sweep runs in increasing id order, so the first panic in
// a chunk is the chunk's lowest, and combine takes the minimum across
// workers.
// Under an active set the sweep walks only active nodes — the sparse id
// slice or the chunk range under the bitmap, per planSweep's density
// choice — which is what makes a regional run cost O(active) per round.
// A staged engine (multiple workers) runs the round in two per-chunk
// passes: the delivery pass (worker.deliver) packs every live node's
// inbox, then the step pass advances each machine with its pre-packed
// inbox; both passes only write chunk-owned state (inSlab, inCnt, state
// bytes, the chunk's nxt rows), so concurrent workers never contend. A
// scatter engine steps each node against its own just-collected inbox in
// a single pass.
func (w *worker) flatSweep() {
	e := w.e
	nodes := e.nodes
	state := e.state
	stepping := -1
	defer func() {
		if r := recover(); r != nil {
			state[stepping] |= stDone
			w.done++
			if e.staged {
				w.washNew = append(w.washNew, int32(stepping))
			}
			w.notePanic(stepping, r)
		}
	}()
	if e.staged {
		w.deliver()
	}
	staged := e.staged
	switch e.sweep {
	case sweepList:
		for _, i := range e.activeSorted[w.actLo:w.actHi] {
			s := state[i]
			if s&stDone != 0 {
				continue
			}
			stepping = int(i)
			w.stepFlat(&nodes[i], i, s, staged)
		}
	case sweepMask:
		mask := e.active.mask
		for i := w.lo; i < w.hi; i++ {
			if !mask[i] {
				continue
			}
			s := state[i]
			if s&stDone != 0 {
				continue
			}
			stepping = int(i)
			w.stepFlat(&nodes[i], i, s, staged)
		}
	default:
		for i := w.lo; i < w.hi; i++ {
			s := state[i]
			if s&stDone != 0 {
				continue
			}
			stepping = int(i)
			w.stepFlat(&nodes[i], i, s, staged)
		}
	}
}

// deliver is the staged engine's per-chunk delivery pass: it packs every
// live started node's inbox from the front buffer into the chunk's
// inSlab rows. Running all of the chunk's gathers back-to-back,
// uninterrupted by program code, lets their random front-buffer reads
// overlap in the memory pipeline instead of serializing one OnRound at
// a time.
func (w *worker) deliver() {
	e := w.e
	nodes := e.nodes
	state := e.state
	switch e.sweep {
	case sweepList:
		for _, i := range e.activeSorted[w.actLo:w.actHi] {
			if state[i]&(stStarted|stDone) == stStarted {
				nodes[i].gather()
			}
		}
	case sweepMask:
		mask := e.active.mask
		for i := w.lo; i < w.hi; i++ {
			if mask[i] && state[i]&(stStarted|stDone) == stStarted {
				nodes[i].gather()
			}
		}
	default:
		for i := w.lo; i < w.hi; i++ {
			if state[i]&(stStarted|stDone) == stStarted {
				nodes[i].gather()
			}
		}
	}
}

// stepFlat advances one live RoundProgram by one round; s is the node's
// already-loaded state byte. On a staged engine a continuing node first
// bulk-clears its own out-slot range — the sender-indexed counterpart of
// receiver-side mailbox clearing — then consumes the inbox the delivery
// pass packed for it; on a scatter engine it collects (and thereby
// clears) its own mailbox range inline.
func (w *worker) stepFlat(nd *Node, i int32, s uint8, staged bool) {
	e := w.e
	var again bool
	if s&stStarted != 0 {
		if staged {
			nd.clearOut()
			again = e.progs[i].OnRound(nd, e.inSlab[nd.base:nd.base+e.inCnt[i]])
		} else {
			again = e.progs[i].OnRound(nd, nd.collect())
		}
	} else {
		e.state[i] = s | stStarted
		again = e.progs[i].Init(nd)
	}
	if again {
		w.parked++
	} else {
		e.state[i] |= stDone
		w.done++
		if staged {
			w.washNew = append(w.washNew, i)
		}
	}
}
