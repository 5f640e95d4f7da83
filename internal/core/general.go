package core

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements the paper's §3.3, Algorithm 4: the randomized
// reduction from general graphs to bipartite graphs. Each iteration colors
// every node red or blue by a fair coin, forms the bipartite subgraph
// Ĝ = (V̂, Ê) with V̂ = {free nodes} ∪ {bichromatically matched nodes} and
// Ê = the bichromatic edges inside V̂, and calls the §3.2 machinery for a
// maximal set of disjoint augmenting paths of length ≤ 2k−1 in Ĝ
// (Aug(Ĝ, M, 2k−1)). After 2^{2k+1}(k+1)·ln k iterations the matching is a
// (1−1/k)-MCM w.h.p. (Lemma 3.10, Theorem 3.11).

// GeneralOptions tunes GeneralMCM.
type GeneralOptions struct {
	// Iters overrides the paper's iteration bound 2^{2k+1}(k+1)·ln k.
	// Zero keeps the bound.
	Iters int
	// IdleStop, when positive, stops after this many consecutive
	// iterations without any augmentation anywhere (detected with one
	// OR-oracle round per iteration). This is a practical convergence heuristic
	// measured against the paper bound in experiment E4; zero disables it.
	IdleStop int
	// Oracle enables convergence detection inside each bipartite phase.
	Oracle bool
	// StrictCapacityBits, when positive, runs the inner bipartite phases
	// in strict CONGEST mode: no message exceeds this many bits (the
	// Lemma 3.7 pipelining), realizing Theorem 3.11's O(log n)-bit claim
	// as an actual execution constraint.
	StrictCapacityBits int
}

// TheoryIters returns the paper's iteration count 2^{2k+1}(k+1)·ln k
// (Algorithm 4, line 2), rounded up.
func TheoryIters(k int) int {
	if k < 3 {
		k = 3 // the paper's analysis assumes k > 2
	}
	return int(math.Ceil(math.Pow(2, float64(2*k+1)) * float64(k+1) * math.Log(float64(k))))
}

type colorMsg struct{ red bool }

func (colorMsg) Bits() int { return 1 }

type memberMsg struct{ in bool }

func (memberMsg) Bits() int { return 1 }

// GeneralMCM computes a (1−1/k)-approximate maximum cardinality matching of
// an arbitrary graph g with high probability (Theorem 3.11), in
// O(2^{2k}k⁴ log k · log n) rounds with O(log n)-bit messages.
func GeneralMCM(g *graph.Graph, k int, seed uint64, opts GeneralOptions) (*graph.Matching, *dist.Stats) {
	return GeneralMCMWithConfig(g, k, dist.Config{Seed: seed}, opts)
}

// GeneralMCMWithConfig is GeneralMCM with full engine configuration
// (profiling, limits, workers). opts.StrictCapacityBits > 0 runs the inner
// phases through the strict chunk pipelining of flat_strict.go.
func GeneralMCMWithConfig(g *graph.Graph, k int, cfg dist.Config, opts GeneralOptions) (*graph.Matching, *dist.Stats) {
	if k < 3 {
		panic("core: GeneralMCM requires k > 2 (Algorithm 4)")
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = TheoryIters(k)
	}
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, generalFactory(k, iters, opts, matchedEdge))
	return graph.CollectMatching(g, matchedEdge), stats
}
