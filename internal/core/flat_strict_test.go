package core

// Golden-digest suites for strict CONGEST execution (flat_strict.go):
// same seed ⇒ the committed matching and Stats — including the
// capacity-capped MaxMessageBits and the chunked per-round profile — on
// random and pathological topologies, both termination modes, several
// worker counts and capacities, and under crash-fault plans.

import (
	"fmt"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// TestFlatMatchesCoroutineStrict pins the Lemma 3.7 pipelining of
// Algorithm 3.
func TestFlatMatchesCoroutineStrict(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.BipartiteGnp(rng.New(41), 24, 22, 0.15),
		"path":     gen.Path(25), // long augmenting chains
		"star":     gen.Star(12),
		"edgeless": graph.NewBuilder(5).MustBuild(),
	}
	tab := golden.Open(t, "strict")
	for name, g := range tops {
		for _, capacity := range []int{1, 3, 8} {
			for _, oracle := range []bool{true, false} {
				label := modeLabel(name, oracle)
				key := fmt.Sprintf("%s/cap=%d", label, capacity)
				for _, workers := range []int{1, 3, 8} {
					m, st := BipartiteMCMStrictWithConfig(g, 2,
						dist.Config{Seed: 19, Profile: true, Workers: workers}, capacity, oracle)
					if st.MaxMessageBits > capacity {
						t.Fatalf("%s: peak width %d exceeds capacity", key, st.MaxMessageBits)
					}
					tab.Check(t, key, runDigest(g, m, st))
				}
			}
		}
	}
}

// TestFlatMatchesCoroutineGeneralStrict pins Algorithm 4 with strict
// inner phases (Theorem 3.11's O(log n)-bit claim as an execution
// constraint).
func TestFlatMatchesCoroutineGeneralStrict(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":   gen.Gnp(rng.New(43), 18, 0.25),
		"cycle": gen.Cycle(15), // odd cycle: genuinely non-bipartite
	}
	tab := golden.Open(t, "general_strict")
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			opts := GeneralOptions{Iters: 12, IdleStop: 6, Oracle: oracle, StrictCapacityBits: 6}
			label := modeLabel(name, oracle)
			for _, workers := range []int{1, 4} {
				m, st := GeneralMCMWithConfig(g, 3,
					dist.Config{Seed: 23, Profile: true, Workers: workers}, opts)
				tab.Check(t, label, runDigest(g, m, st))
			}
		}
	}
}

// TestFlatMatchesCoroutineStrictFaulted replays crash-fault plans against
// the strict phase pipeline: a crashed node goes silent, which the
// protocol tolerates (silence never trips the route-validation panics),
// and the run must still match its committed digest, fault accounting
// included. The runs are driven at the engine level because a crashed
// node never writes its matched edge — the digest covers the raw per-node
// outcome array (crashed entries keep the -2 sentinel), not a collected
// Matching.
func TestFlatMatchesCoroutineStrictFaulted(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(47), 20, 20, 0.2)
	const k, capacity = 2, 5
	outcome := func(nd *dist.Node, st *MatchState, matched []int32) {
		matched[nd.ID()] = -1
		if st.MatchedPort >= 0 {
			matched[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
		}
	}
	tab := golden.Open(t, "strict_faulted")
	for _, planSeed := range []uint64{1, 2, 3} {
		key := fmt.Sprintf("plan=%d", planSeed)
		plan := dist.RandomFaultPlan(planSeed, g.N(), g.M(), dist.FaultProfile{Rounds: 40, Crashes: 3})
		for _, workers := range []int{1, 6} {
			fmatched := make([]int32, g.N())
			for i := range fmatched {
				fmatched[i] = -2
			}
			fst := dist.RunFlat(g, dist.Config{Seed: 29, Profile: true, Faults: plan, Workers: workers},
				func(nd *dist.Node) dist.RoundProgram {
					env := &phaseEnv{
						st:          MatchState{MatchedPort: -1},
						side:        nd.Side(),
						participate: true,
						active:      allPorts,
					}
					m := &strictPhasesMachine{}
					m.reset(env, k, true, capacity)
					return dist.AsProgram(m, func(nd *dist.Node) { outcome(nd, &env.st, fmatched) })
				})
			tab.Check(t, key, golden.New().Add(fmatched).Stats(fst))
		}
	}
}
