package lpr

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// runWeights drives one WeightsMachine per node over caller-supplied
// per-port weights — the embedding Algorithm 5 uses — and returns each
// node's matched port.
func runWeights(g *graph.Graph, seed uint64, eps float64, weight func(nd *dist.Node, p int) float64) []int {
	ports := make([]int, g.N())
	dist.RunFlat(g, dist.Config{Seed: seed}, func(nd *dist.Node) dist.RoundProgram {
		w := make([]float64, nd.Deg())
		for p := range w {
			w[p] = weight(nd, p)
		}
		m := &WeightsMachine{}
		m.Reset(w, eps, true)
		return dist.AsProgram(m, func(nd *dist.Node) { ports[nd.ID()] = m.Port })
	})
	return ports
}

// TestRunLocalWeightsDerivedWeights drives the black box through the same
// embedding Algorithm 5 uses: per-port weights supplied by the caller
// rather than read from the graph.
func TestRunLocalWeightsDerivedWeights(t *testing.T) {
	g := gen.UniformWeights(rng.New(1), gen.Gnp(rng.New(2), 40, 0.15), 1, 50)
	// Derived weights: double the graph weight (order preserved, so the
	// matching class is unchanged).
	ports := runWeights(g, 3, 0.05, func(nd *dist.Node, p int) float64 { return 2 * nd.EdgeWeight(p) })
	matched := make([]int32, g.N())
	for v, p := range ports {
		matched[v] = -1
		if p >= 0 {
			matched[v] = int32(g.EdgeAt(v, p))
		}
	}
	m := graph.CollectMatching(g, matched)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	if m.Size() == 0 && g.M() > 0 {
		t.Fatal("derived-weight run matched nothing")
	}
}

func TestRunLocalWeightsAllNegative(t *testing.T) {
	g := gen.Gnp(rng.New(4), 20, 0.2)
	for v, p := range runWeights(g, 5, 0.1, func(*dist.Node, int) float64 { return -1 }) {
		if p >= 0 {
			t.Fatalf("node %d matched a negative-weight edge", v)
		}
	}
}

func TestGuaranteeHelper(t *testing.T) {
	if Guarantee(0.05) != 0.2 {
		t.Fatalf("Guarantee(0.05) = %v", Guarantee(0.05))
	}
}

func TestLocalGreedyBudgetCap(t *testing.T) {
	// With a tiny iteration cap on the adversarial chain, the result is a
	// valid (partial) matching; the cap binds.
	g := gen.AdversarialChain(100)
	m, stats := LocalGreedy(g, 1, 3, false)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds > 3*2+1 {
		t.Fatalf("cap did not bind: %d rounds", stats.Rounds)
	}
	if m.IsMaximal(g) {
		t.Fatal("3 iterations cannot be maximal on the 100-chain")
	}
}
