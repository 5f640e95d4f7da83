package core

// Golden-digest suites for Algorithms 3-5: same seed ⇒ the committed
// matching and Stats (rounds, messages, bits, peak width, oracle calls,
// per-round profile) on random and pathological topologies, both
// termination modes, several worker counts. The digests were recorded
// while the retired coroutine forms were asserted bit-identical to these
// machines, so a mismatch is a behaviour change in flat*.go.

import (
	"fmt"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// runDigest folds one run's observable outcome — matching plus Stats —
// into a golden digest.
func runDigest(g *graph.Graph, m *graph.Matching, st *dist.Stats) *golden.Digest {
	return golden.New().Matching(g, m).Stats(st)
}

func modeLabel(name string, oracle bool) string {
	if oracle {
		return name + "/oracle"
	}
	return name + "/budget"
}

// TestFlatMatchesCoroutineBipartite pins Algorithm 3 (Theorem 3.8) to
// the digests recorded when it matched the coroutine form.
func TestFlatMatchesCoroutineBipartite(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.BipartiteGnp(rng.New(31), 40, 36, 0.12),
		"dense":    gen.BipartiteGnp(rng.New(32), 14, 14, 0.5),
		"path":     gen.Path(41), // long augmenting chains
		"star":     gen.Star(24),
		"cycle":    gen.Cycle(32),
		"edgeless": graph.NewBuilder(5).MustBuild(),
	}
	tab := golden.Open(t, "bipartite")
	for name, g := range tops {
		for _, k := range []int{1, 3} {
			for _, oracle := range []bool{true, false} {
				label := modeLabel(name, oracle)
				key := fmt.Sprintf("%s/k=%d", label, k)
				for _, workers := range []int{1, 3, 8} {
					m, st := BipartiteMCMWithConfig(g, k,
						dist.Config{Seed: 97, Profile: true, Workers: workers}, oracle)
					tab.Check(t, key, runDigest(g, m, st))
				}
			}
		}
	}
}

// TestFlatMatchesCoroutineGeneral pins Algorithm 4 (Theorem 3.11),
// across idle-stop settings.
func TestFlatMatchesCoroutineGeneral(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.Gnp(rng.New(33), 30, 0.2),
		"cycle":    gen.Cycle(21), // odd cycle: genuinely non-bipartite
		"edgeless": graph.NewBuilder(4).MustBuild(),
	}
	tab := golden.Open(t, "general")
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			for _, idle := range []int{0, 6} {
				opts := GeneralOptions{Iters: 30, IdleStop: idle, Oracle: oracle}
				label := modeLabel(name, oracle)
				key := fmt.Sprintf("%s/idle=%d", label, idle)
				for _, workers := range []int{1, 4} {
					m, st := GeneralMCMWithConfig(g, 3,
						dist.Config{Seed: 55, Profile: true, Workers: workers}, opts)
					tab.Check(t, key, runDigest(g, m, st))
				}
			}
		}
	}
}

// TestFlatMatchesCoroutineWeighted pins Algorithm 5 (Theorem 4.5),
// per-iteration trace snapshots included.
func TestFlatMatchesCoroutineWeighted(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnm-uniform": gen.UniformWeights(rng.New(61), gen.Gnm(rng.New(62), 48, 140), 1, 100),
		"gnm-exp":     gen.ExpWeights(rng.New(63), gen.Gnm(rng.New(64), 32, 90), 10),
		"chain":       gen.AdversarialChain(24),
		"unit":        gen.Cycle(20),
		"edgeless":    graph.NewBuilder(3).MustBuild(),
	}
	eps := 0.25
	tab := golden.Open(t, "weighted")
	digest := func(g *graph.Graph, m *graph.Matching, st *dist.Stats, trace []*graph.Matching) *golden.Digest {
		d := runDigest(g, m, st)
		for _, tm := range trace {
			d.Matching(g, tm)
		}
		return d
	}
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			label := modeLabel(name, oracle)
			for _, workers := range []int{1, 5} {
				trace := make([]*graph.Matching, WeightedIters(eps)+1)
				m, st := WeightedMWMWithConfig(g,
					dist.Config{Seed: 77, Profile: true, Workers: workers}, eps, oracle, trace)
				tab.Check(t, label, digest(g, m, st, trace))
			}
		}
	}
}

// TestFlatBipartiteGuarantee re-checks the Theorem 3.8 guarantee on a
// run in its own right (not just equality with a committed digest).
func TestFlatBipartiteGuarantee(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(35), 60, 60, 0.08)
	k := 3
	m, _ := BipartiteMCMWithConfig(g, k, dist.Config{Seed: 9}, true)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Maximality up to length 2k−1: no short augmenting path survives.
	if got := CountLeadersProbe(g, m, 2*k-1); got {
		t.Fatal("flat run left an augmenting path of length <= 2k-1")
	}
}

// CountLeadersProbe runs the counting BFS on a fixed matching and reports
// whether any leader (endpoint of an augmenting path of length ≤ ell)
// exists.
func CountLeadersProbe(g *graph.Graph, m *graph.Matching, ell int) bool {
	counts, _ := CountPaths(g, m, ell)
	for v := 0; v < g.N(); v++ {
		if g.Side(v) == 1 && m.Free(v) && counts[v] > 0 {
			return true
		}
	}
	return false
}
