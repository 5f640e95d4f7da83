package core

import (
	"fmt"
	"testing"

	"distmatch/internal/gen"
	"distmatch/internal/golden"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

func TestCountPathsRejectsNonBipartite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-bipartite accepted")
		}
	}()
	CountPaths(gen.Cycle(5), graph.NewMatching(5), 3)
}

func TestCountPathsExactRoundCount(t *testing.T) {
	g := gen.CompleteBipartite(4, 4)
	m := graph.NewMatching(g.N())
	for _, ell := range []int{1, 3, 5} {
		_, stats := CountPaths(g, m, ell)
		if stats.Rounds != ell {
			t.Fatalf("ell=%d: %d rounds", ell, stats.Rounds)
		}
	}
}

// TestCountPathsGolden pins CountPaths' per-node counts and Stats on
// empty, maximal and hand-built matchings to committed digests.
func TestCountPathsGolden(t *testing.T) {
	fig, figM, _, _ := gen.Figure1Instance()
	cases := map[string]struct {
		g *graph.Graph
		m *graph.Matching
	}{
		"figure1": {fig, figM},
		"kbb44":   {gen.CompleteBipartite(4, 4), graph.NewMatching(8)},
		"path":    {gen.Path(15), greedyMaximal(gen.Path(15))},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.BipartiteGnp(rng.New(70).Fork(uint64(trial)), 6, 6, 0.35)
		cases[fmt.Sprintf("gnp%d", trial)] = struct {
			g *graph.Graph
			m *graph.Matching
		}{g, greedyMaximal(g)}
	}
	tab := golden.Open(t, "countpaths")
	for name, c := range cases {
		for _, ell := range []int{1, 3, 5} {
			counts, st := CountPaths(c.g, c.m, ell)
			tab.Check(t, fmt.Sprintf("%s/ell=%d", name, ell), golden.New().Add(counts).Stats(st))
		}
	}
}

func TestWeightedItersMonotone(t *testing.T) {
	// Smaller ε must demand at least as many iterations.
	prev := 0
	for _, eps := range []float64{0.4, 0.2, 0.1, 0.05, 0.01} {
		it := WeightedIters(eps)
		if it < prev {
			t.Fatalf("iterations not monotone: eps=%v gives %d < %d", eps, it, prev)
		}
		prev = it
	}
}

func TestGenericBudgetGrowsWithEllAndN(t *testing.T) {
	if GenericBudget(100, 3) >= GenericBudget(100, 7) {
		t.Fatal("budget not growing with ell")
	}
	if GenericBudget(10, 3) >= GenericBudget(10000, 3) {
		t.Fatal("budget not growing with n")
	}
}

func TestGenericOnDisconnectedGraph(t *testing.T) {
	// Two disjoint paths; phases must handle multiple components at once.
	b := graph.NewBuilder(8)
	for v := 0; v < 3; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 4; v < 7; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	m, _ := GenericMCM(g, 0.34, 3, true)
	if m.Size() != 4 { // two P4s, each perfectly matchable
		t.Fatalf("disconnected: %d, want 4", m.Size())
	}
}

func TestBipartiteOnEdgelessGraph(t *testing.T) {
	b := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetSide(v, int8(v%2))
	}
	g := b.MustBuild()
	m, stats := BipartiteMCM(g, 3, 1, true)
	if m.Size() != 0 {
		t.Fatal("edgeless graph matched")
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds at all — phases skipped entirely?")
	}
}

func TestGeneralOnHypercube(t *testing.T) {
	g := gen.Hypercube(4) // bipartite but Algorithm 4 must not care
	m, _ := GeneralMCM(g, 3, 5, GeneralOptions{Oracle: true, IdleStop: 40})
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Q4 has a perfect matching of 8 edges; guarantee allows >= 2/3·8.
	if m.Size() < 6 {
		t.Fatalf("Q4: %d below guarantee", m.Size())
	}
}

func TestWeightedTraceLengthValidation(t *testing.T) {
	g := gen.Path(4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong trace length accepted")
		}
	}()
	WeightedMWM(g, 0.25, 1, true, make([]*graph.Matching, 3))
}

func TestAbstractAlgorithm1OnPlanted(t *testing.T) {
	g, _ := gen.PlantedBipartite(rng.New(9), 12, 2)
	m, rounds := AbstractAlgorithm1(g, 0.25, 9)
	if rounds <= 0 {
		t.Fatal("no MIS rounds recorded")
	}
	if float64(m.Size()) < 0.75*12 {
		t.Fatalf("abstract algorithm below guarantee on planted instance: %d", m.Size())
	}
}
