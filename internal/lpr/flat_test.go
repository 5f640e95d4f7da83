package lpr

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// runDigest folds one run's matching and Stats into a golden digest.
func runDigest(g *graph.Graph, m *graph.Matching, st *dist.Stats) *golden.Digest {
	return golden.New().Matching(g, m).Stats(st)
}

// TestFlatMatchesCoroutine pins the weight-class (¼−ε)-MWM to the digests
// recorded when it matched the coroutine form: same seed ⇒ the committed
// matching and Stats on random, adversarial-chain and degenerate
// topologies, both termination modes, several worker counts.
func TestFlatMatchesCoroutine(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnm-uniform": gen.UniformWeights(rng.New(71), gen.Gnm(rng.New(72), 150, 500), 1, 100),
		"gnm-exp":     gen.ExpWeights(rng.New(73), gen.Gnm(rng.New(74), 100, 300), 10),
		"chain":       gen.AdversarialChain(60),
		"star":        gen.UniformWeights(rng.New(75), gen.Star(50), 1, 10),
		"unit":        gen.Cycle(64), // all weights 1: a single weight class
		"edgeless":    graph.NewBuilder(4).MustBuild(),
	}
	tab := golden.Open(t, "lpr")
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			label := name
			if oracle {
				label += "/oracle"
			} else {
				label += "/budget"
			}
			for _, workers := range []int{1, 3, 8} {
				m, st := RunWithConfig(g, dist.Config{Seed: 88, Profile: true, Workers: workers}, 0.1, oracle)
				tab.Check(t, label, runDigest(g, m, st))
			}
		}
	}
}

// TestFlatGuaranteeHolds re-checks the approximation guarantee on a run
// in its own right.
func TestFlatGuaranteeHolds(t *testing.T) {
	g := gen.UniformWeights(rng.New(81), gen.Gnm(rng.New(82), 120, 360), 1, 50)
	m, _ := RunWithConfig(g, dist.Config{Seed: 4}, 0.05, true)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	if m.Weight(g) <= 0 {
		t.Fatal("run produced an empty matching on a weighted graph")
	}
}
