package core

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements the paper's §4, Algorithm 5: the (½−ε)-approximate
// maximum weight matching. Each of the ⌈(3/2δ)·ln(2/ε)⌉ iterations computes
// the derived weight function w_M (one round of exchanging matched-edge
// weights), runs a black-box δ-MWM on (V, E, w_M) — internal/lpr with
// δ = ¼ − 1/20 = 1/5, exactly the instantiation in the proof of Theorem
// 4.5 — and then augments M by the length-3 wraps centered at the edges of
// M′ (one release round, Lemma 4.1).

// Delta is the black-box approximation factor used by WeightedMWM, chosen
// as in the paper's proof of Theorem 4.5 (δ = 1/5 via the (¼−ε')-MWM with
// ε' = 1/20).
const Delta = 0.2

const blackBoxEps = 0.05 // ε' = 1/20: ¼ − ε' = δ = 1/5

// WeightedIters returns the paper's iteration count ⌈(3/2δ)·ln(2/ε)⌉
// (Algorithm 5, line 2).
func WeightedIters(eps float64) int {
	if eps <= 0 || eps >= 0.5 {
		panic("core: WeightedMWM requires 0 < eps < 1/2")
	}
	return int(math.Ceil(3 / (2 * Delta) * math.Log(2/eps)))
}

type mwMsg float64 // a node's current matched-edge weight

func (mwMsg) Bits() int { return 64 }

type releaseMsg struct{ dist.Signal }

// WeightedMWM computes a (½−ε)-approximate maximum weight matching of g
// distributively (Theorem 4.5): O(log(1/ε)·log n)-round shape with
// O(log n)-bit messages (the inner black box contributes an extra log
// factor; see DESIGN.md §3 substitution 1).
//
// If trace is non-nil it must have length WeightedIters(eps)+1; entry i
// receives a snapshot of the matching after i iterations (entry 0 is the
// empty matching), which experiment E6 compares against the Lemma 4.3
// bound w(M_i) ≥ ½(1−e^{−2δi/3})·w(M*).
func WeightedMWM(g *graph.Graph, eps float64, seed uint64, oracle bool, trace []*graph.Matching) (*graph.Matching, *dist.Stats) {
	return WeightedMWMWithConfig(g, dist.Config{Seed: seed}, eps, oracle, trace)
}

// WeightedMWMWithConfig is WeightedMWM with full engine configuration
// (profiling, limits, workers).
func WeightedMWMWithConfig(g *graph.Graph, cfg dist.Config, eps float64, oracle bool, trace []*graph.Matching) (*graph.Matching, *dist.Stats) {
	iters := WeightedIters(eps)
	if trace != nil && len(trace) != iters+1 {
		panic("core: trace must have WeightedIters(eps)+1 entries")
	}
	snap := make([][]int32, len(trace))
	for i := range snap {
		snap[i] = make([]int32, g.N())
	}
	record := func(nd *dist.Node, st *MatchState, it int) {
		if trace == nil {
			return
		}
		e := int32(-1)
		if st.MatchedPort >= 0 {
			e = int32(nd.EdgeID(st.MatchedPort))
		}
		snap[it][nd.ID()] = e
	}

	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &weightedMachine{
			oracle: oracle, iters: iters, matchedEdge: matchedEdge, record: record,
		}
	})
	for i := range trace {
		trace[i] = graph.CollectMatching(g, snap[i])
	}
	return graph.CollectMatching(g, matchedEdge), stats
}
