package israeliitai

import (
	"fmt"
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// diffTopologies is the golden-digest test bed: random graphs plus the
// pathological shapes (star: one hot responder; complete: dense proposal
// storms; path/cycle: long sparse chains; lone edge and edgeless: trivia).
func diffTopologies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"gnp-sparse":  gen.Gnp(rng.New(11), 200, 2.0/199),
		"gnp-dense":   gen.Gnp(rng.New(12), 80, 0.3),
		"bipartite":   gen.BipartiteGnp(rng.New(13), 60, 60, 0.08),
		"star":        gen.Star(64),
		"complete":    gen.Complete(24),
		"path":        gen.Path(97),
		"cycle":       gen.Cycle(128),
		"tree":        gen.RandomTree(rng.New(14), 150),
		"lone-edge":   gen.Path(2),
		"edgeless":    graph.NewBuilder(5).MustBuild(),
		"single-node": graph.NewBuilder(1).MustBuild(),
	}
}

// statsEqual compares every externally observable Stats field, including
// the per-round profile and the pipelining re-costing (which exercises the
// private per-round max-bits record).
func statsEqual(t *testing.T, label string, want, got *dist.Stats) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Messages != got.Messages ||
		want.Bits != got.Bits || want.MaxMessageBits != got.MaxMessageBits ||
		want.OracleCalls != got.OracleCalls {
		t.Fatalf("%s: stats differ: %v vs %v", label, want, got)
	}
	if !reflect.DeepEqual(want.Profile, got.Profile) {
		t.Fatalf("%s: per-round profiles differ", label)
	}
	if want.PipelinedRounds(16) != got.PipelinedRounds(16) {
		t.Fatalf("%s: pipelined round estimates differ", label)
	}
}

// runDigest folds one run's matching and Stats into a golden digest.
func runDigest(g *graph.Graph, m *graph.Matching, st *dist.Stats) *golden.Digest {
	return golden.New().Matching(g, m).Stats(st)
}

func matchingsEqual(t *testing.T, label string, g *graph.Graph, a, b *graph.Matching) {
	t.Helper()
	if !reflect.DeepEqual(a.Edges(g), b.Edges(g)) {
		t.Fatalf("%s: matchings differ: %v vs %v", label, a.Edges(g), b.Edges(g))
	}
}

// TestFlatMatchesCoroutine pins Israeli–Itai to the digests recorded when
// it matched the coroutine form: same seed ⇒ the committed matching and
// Stats on every topology, in both termination modes, at multiple worker
// counts.
func TestFlatMatchesCoroutine(t *testing.T) {
	tab := golden.Open(t, "israeliitai")
	for name, g := range diffTopologies(t) {
		for _, oracle := range []bool{true, false} {
			label := name
			if oracle {
				label += "/oracle"
			} else {
				label += "/budget"
			}
			for _, workers := range []int{1, 2, 3, 8} {
				m, st := RunWithConfig(g, dist.Config{Seed: 99, Profile: true, Workers: workers}, oracle)
				tab.Check(t, label, runDigest(g, m, st))
			}
		}
	}
}

// TestFlatRunBudgetMatches covers the truncated RunBudget variant (E12's
// substrate) including tiny budgets where many nodes stay free.
func TestFlatRunBudgetMatches(t *testing.T) {
	g := gen.RandomTree(rng.New(21), 300)
	tab := golden.Open(t, "israeliitai_budget")
	for _, iters := range []int{1, 2, 5} {
		key := fmt.Sprintf("iters=%d", iters)
		for _, workers := range []int{0, 3} {
			m, st := run(g, dist.Config{Seed: 5, Workers: workers}, iters, false)
			tab.Check(t, key, runDigest(g, m, st))
		}
	}
}

// TestFlatDefaultBackend pins the entry-point contract: Run is
// RunWithConfig with only the seed set.
func TestFlatDefaultBackend(t *testing.T) {
	g := gen.Gnp(rng.New(31), 120, 0.05)
	am, ast := Run(g, 17, true)
	fm, fst := RunWithConfig(g, dist.Config{Seed: 17}, true)
	matchingsEqual(t, "run-vs-config", g, am, fm)
	statsEqual(t, "run-vs-config", ast, fst)
}

// TestFlatDeterministicAcrossWorkers re-proves the engine determinism
// guarantee with a real protocol.
func TestFlatDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Gnp(rng.New(41), 257, 0.03)
	base, bst := RunWithConfig(g, dist.Config{Seed: 3, Workers: 1}, true)
	for _, workers := range []int{2, 5, 64} {
		m, st := RunWithConfig(g, dist.Config{Seed: 3, Workers: workers}, true)
		matchingsEqual(t, "workers", g, base, m)
		statsEqual(t, "workers", bst, st)
	}
}
