package dist

import (
	"fmt"

	"distmatch/internal/graph"
)

// Mutable topology: a Runner's engine is built once over a fixed CSR slab
// (fixed node count, fixed port numbering), but the *arc set* and the
// edge weights may change between runs. Two lazily allocated overlays
// realize this without touching the immutable graph:
//
//   - an edge activation mask: a dead edge drops every message sent on it
//     (Send returns without delivering or charging traffic, SendAll skips
//     the port), so any protocol — whether or not it ever looks at the
//     mask — executes exactly as it would on the subgraph of live edges.
//     Node.EdgeLive exposes the mask to protocols that want to skip
//     composing messages for dead ports.
//   - a weight overlay: Node.EdgeWeight reads it instead of the graph.
//
// Both overlays persist across runs and seeds until changed — that is the
// point: a dynamic consumer (internal/dynamic's Maintainer, the per-slot
// switch scheduler) applies a small batch of mutations and re-runs a
// protocol on the warm engine, paying for the delta instead of a rebuild.
// Mutations must not race a run; a Runner is single-threaded by contract.

// Graph returns the fixed graph slab the Runner was built over. The
// activation mask and weight overlay are not reflected in it.
func (r *Runner) Graph() *graph.Graph { return r.e.g }

// SetEdgeLive activates (live=true) or deactivates (live=false) edge e
// for all subsequent runs. The first deactivation allocates the mask;
// until then every edge is live.
func (r *Runner) SetEdgeLive(e int, live bool) {
	eng := r.check()
	if e < 0 || e >= eng.g.M() {
		panic(fmt.Sprintf("dist: SetEdgeLive(%d) out of range [0,%d)", e, eng.g.M()))
	}
	if eng.liveEdge == nil {
		if live {
			return // no mask yet ⇒ already live
		}
		eng.liveEdge = make([]bool, eng.g.M())
		for i := range eng.liveEdge {
			eng.liveEdge[i] = true
		}
		eng.liveCount = eng.g.M()
	}
	if eng.liveEdge[e] != live {
		if live {
			eng.liveCount++
		} else {
			eng.liveCount--
		}
	}
	eng.liveEdge[e] = live
}

// EdgeLive reports whether edge e is active.
func (r *Runner) EdgeLive(e int) bool {
	eng := r.check()
	if e < 0 || e >= eng.g.M() {
		panic(fmt.Sprintf("dist: EdgeLive(%d) out of range [0,%d)", e, eng.g.M()))
	}
	return eng.liveEdge == nil || eng.liveEdge[e]
}

// SetAllEdgesLive sets every edge's activation at once — the bulk form of
// SetEdgeLive, used to start a dynamic run from an empty arc set.
func (r *Runner) SetAllEdgesLive(live bool) {
	eng := r.check()
	if eng.liveEdge == nil {
		if live {
			return
		}
		eng.liveEdge = make([]bool, eng.g.M())
	}
	for i := range eng.liveEdge {
		eng.liveEdge[i] = live
	}
	if live {
		eng.liveCount = eng.g.M()
	} else {
		eng.liveCount = 0
	}
}

// SetEdgeWeight overrides the weight of edge e for all subsequent runs.
// The first override allocates the overlay (initialized from the graph).
func (r *Runner) SetEdgeWeight(e int, w float64) {
	eng := r.check()
	if e < 0 || e >= eng.g.M() {
		panic(fmt.Sprintf("dist: SetEdgeWeight(%d) out of range [0,%d)", e, eng.g.M()))
	}
	if eng.weights == nil {
		eng.weights = make([]float64, eng.g.M())
		for i := range eng.weights {
			eng.weights[i] = eng.g.Weight(i)
		}
	}
	eng.weights[e] = w
}

// EdgeWeight returns the current weight of edge e (overlay if installed,
// the graph's weight otherwise).
func (r *Runner) EdgeWeight(e int) float64 {
	eng := r.check()
	if e < 0 || e >= eng.g.M() {
		panic(fmt.Sprintf("dist: EdgeWeight(%d) out of range [0,%d)", e, eng.g.M()))
	}
	if eng.weights != nil {
		return eng.weights[e]
	}
	return eng.g.Weight(e)
}

// ResetTopology discards both overlays: every edge live, graph weights.
func (r *Runner) ResetTopology() {
	eng := r.check()
	eng.liveEdge, eng.weights = nil, nil
	eng.liveCount = 0
}

// LiveEdgeCount returns the number of live edges under the activation
// mask (m when none is installed). O(1): the count is maintained
// incrementally by the mutation API — this is what lets consumers detect
// the all-edges-dead subgraph without an O(m) scan (see
// check.MatchingOnRunner's empty-subgraph short-circuit).
func (r *Runner) LiveEdgeCount() int {
	eng := r.check()
	if eng.liveEdge == nil {
		return eng.g.M()
	}
	return eng.liveCount
}

// LiveSubgraph materializes the current activation mask and weight
// overlay as a fresh immutable Graph on the same node ids — the form the
// centralized exact references take for spot audits. O(n + m live edges).
func (r *Runner) LiveSubgraph() *graph.Graph {
	return r.Subgraph(r.check().liveEdge)
}

// Subgraph materializes the slab edges marked in live (nil = every edge)
// with the current weight overlay as a fresh immutable Graph on the same
// node ids. It is LiveSubgraph for a caller whose own liveness record
// differs from the activation mask — a Maintainer that hides pinned
// nodes from the engine but reports its full live subgraph. O(n + m).
func (r *Runner) Subgraph(live []bool) *graph.Graph {
	eng := r.check()
	g := eng.g
	b := graph.NewBuilder(g.N())
	if g.IsBipartite() {
		for v := 0; v < g.N(); v++ {
			b.SetSide(v, int8(g.Side(v)))
		}
	}
	for e := 0; e < g.M(); e++ {
		if live != nil && !live[e] {
			continue
		}
		u, v := g.Endpoints(e)
		b.AddWeightedEdge(u, v, r.EdgeWeight(e))
	}
	return b.MustBuild()
}
