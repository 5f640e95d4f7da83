package mis

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// TestFlatMatchesCoroutine pins Luby's MIS to the digests recorded when it
// matched the coroutine form: same seed ⇒ the committed membership vector
// and Stats on random and pathological topologies, both termination
// modes, several worker counts.
func TestFlatMatchesCoroutine(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":         gen.Gnp(rng.New(51), 150, 0.04),
		"star":        gen.Star(80),
		"complete":    gen.Complete(20),
		"cycle":       gen.Cycle(101),
		"tree":        gen.RandomTree(rng.New(52), 120),
		"edgeless":    graph.NewBuilder(6).MustBuild(),
		"single-node": graph.NewBuilder(1).MustBuild(),
	}
	tab := golden.Open(t, "mis")
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			label := name
			if oracle {
				label += "/oracle"
			} else {
				label += "/budget"
			}
			for _, workers := range []int{1, 3, 8} {
				member, st := RunWithConfig(g, dist.Config{Seed: 77, Profile: true, Workers: workers}, oracle)
				tab.Check(t, label, golden.New().Add(member).Stats(st))
			}
		}
	}
}

// TestFlatIsMaximal double-checks the result is a valid MIS in its own
// right (not just equal to a committed digest).
func TestFlatIsMaximal(t *testing.T) {
	g := gen.Gnp(rng.New(61), 200, 0.05)
	member, _ := RunWithConfig(g, dist.Config{Seed: 9}, true)
	if msg := Verify(g, member); msg != "" {
		t.Fatalf("MIS invalid: %s", msg)
	}
}
