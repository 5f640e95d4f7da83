// Package lpr provides the constant-factor distributed weighted-matching
// black box that the paper's Algorithm 5 plugs in (its Lemma 4.4 cites the
// (¼−ε)-MWM of Lotker, Patt-Shamir and Rosén, PODC 2007).
//
// The PODC'07 pseudocode is not part of the reproduced text, so this package
// implements a weight-class algorithm with the same guarantee (see DESIGN.md
// §3, substitution 1): edge weights are bucketed into geometric classes
// below the global maximum W; classes lighter than εW/(2n) are discarded
// (they total at most ε·w(M*)/4); the Israeli–Itai maximal-matching protocol
// runs on each class from heaviest to lightest over the still-free nodes.
// Every matched edge blocks at most two optimum edges of at most twice its
// weight, giving a (¼−ε)-approximation in O(log(n/ε)·log n) rounds.
//
// The package also contains LocalGreedy, the "locally heaviest edge"
// protocol (Preis/Hoepman style): a ½-approximation whose round count
// degenerates to Θ(n) on adversarially increasing weight chains — the
// pathology that motivates weight classes (benchmarked in E7).
package lpr

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// Classes returns the number of weight classes used for a given ε and n.
func Classes(n int, eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic("lpr: need 0 < eps < 1")
	}
	return int(math.Ceil(math.Log2(2*float64(n)/eps))) + 1
}

// Guarantee returns the approximation factor δ = ¼ − ε this configuration
// provides.
func Guarantee(eps float64) float64 { return 0.25 - eps }

// Run computes a (¼−ε)-approximate maximum-weight matching of g
// distributively. The global maximum weight W is obtained with one
// global-max oracle round (counted in Stats.OracleCalls). With oracle=true each class
// runs to guaranteed maximality; otherwise each class runs the fixed
// Israeli–Itai budget.
func Run(g *graph.Graph, eps float64, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return RunWithConfig(g, dist.Config{Seed: seed}, eps, oracle)
}

// RunWithConfig is Run with full engine configuration (profiling, limits,
// workers): a WeightsMachine over the graph's own edge weights as the
// whole node program.
func RunWithConfig(g *graph.Graph, cfg dist.Config, eps float64, oracle bool) (*graph.Matching, *dist.Stats) {
	if eps <= 0 || eps >= 1 {
		panic("lpr: need 0 < eps < 1")
	}
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		w := make([]float64, nd.Deg())
		for p := range w {
			w[p] = nd.EdgeWeight(p)
		}
		wm := &WeightsMachine{}
		wm.Reset(w, eps, oracle)
		return dist.AsProgram(wm, func(nd *dist.Node) {
			matchedEdge[nd.ID()] = -1
			if wm.Port >= 0 {
				matchedEdge[nd.ID()] = int32(nd.EdgeID(wm.Port))
			}
		})
	})
	return graph.CollectMatching(g, matchedEdge), stats
}

// LocalGreedy runs the locally-heaviest-edge protocol: in each iteration a
// free node claims its heaviest live incident edge (ties by edge id) and an
// edge claimed from both sides becomes matched. Run to convergence it yields
// a maximal matching that ½-approximates the MWM, but the number of
// iterations is Θ(n) in the worst case (gen.AdversarialChain). maxIters
// bounds the iterations when oracle is false.
func LocalGreedy(g *graph.Graph, seed uint64, maxIters int, oracle bool) (*graph.Matching, *dist.Stats) {
	return LocalGreedyWithConfig(g, dist.Config{Seed: seed}, maxIters, oracle)
}

// LocalGreedyWithConfig is LocalGreedy with full engine configuration
// (profiling, limits, workers).
func LocalGreedyWithConfig(g *graph.Graph, cfg dist.Config, maxIters int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &greedyMachine{maxIters: maxIters, oracle: oracle, matchedEdge: matchedEdge}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
