package lpr

import (
	"testing"

	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

func TestQuarterGuaranteeRandom(t *testing.T) {
	r := rng.New(1)
	const eps = 0.05
	for trial := 0; trial < 25; trial++ {
		n := 6 + r.Intn(30)
		g0 := gen.Gnp(r.Fork(uint64(trial)), n, 0.2)
		g := gen.UniformWeights(r.Fork(uint64(100+trial)), g0, 0.5, 10)
		m, _ := Run(g, eps, uint64(trial), true)
		if err := m.Verify(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt := exact.MWM(g, false)
		if m.Weight(g) < Guarantee(eps)*opt.Weight(g)-1e-9 {
			t.Fatalf("trial %d: got %.3f < (1/4-ε)·%.3f", trial, m.Weight(g), opt.Weight(g))
		}
	}
}

func TestGuaranteeOnAdversarialChain(t *testing.T) {
	g := gen.AdversarialChain(60)
	m, _ := Run(g, 0.05, 3, true)
	opt := exact.MWM(g, false)
	if m.Weight(g) < Guarantee(0.05)*opt.Weight(g) {
		t.Fatalf("chain: got %.1f of opt %.1f", m.Weight(g), opt.Weight(g))
	}
}

func TestGeometricChain(t *testing.T) {
	g := gen.GeometricChain(24, 4)
	m, _ := Run(g, 0.1, 5, true)
	opt := exact.MWM(g, false)
	if m.Weight(g) < Guarantee(0.1)*opt.Weight(g) {
		t.Fatalf("geometric chain: got %.1f of opt %.1f", m.Weight(g), opt.Weight(g))
	}
}

func TestLogRoundsForFixedEps(t *testing.T) {
	r := rng.New(2)
	rounds := map[int]int{}
	for _, n := range []int{64, 512} {
		g := gen.UniformWeights(r.Fork(uint64(n)), gen.Gnm(r.Fork(uint64(n+1)), n, 4*n), 1, 100)
		_, stats := Run(g, 0.1, 9, true)
		rounds[n] = stats.Rounds
	}
	// L grows by log2(512/64)=3 classes; rounds should stay well under
	// linear growth.
	if rounds[512] > 6*rounds[64] {
		t.Fatalf("round scaling suspicious: %v", rounds)
	}
}

func TestBudgetMode(t *testing.T) {
	r := rng.New(3)
	g := gen.UniformWeights(r, gen.Gnp(r.Fork(9), 60, 0.1), 1, 50)
	m, stats := Run(g, 0.1, 11, false)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	// One global-max round for the maximum weight is the only oracle use.
	if stats.OracleCalls != int64(g.N()) {
		t.Fatalf("oracle calls %d, want exactly n=%d (the W aggregation)", stats.OracleCalls, g.N())
	}
	opt := exact.MWM(g, false)
	if m.Weight(g) < Guarantee(0.1)*opt.Weight(g) {
		t.Fatalf("budget mode below guarantee: %.2f of %.2f", m.Weight(g), opt.Weight(g))
	}
}

func TestZeroAndNegativeDerivedWeightsNeverMatch(t *testing.T) {
	// All weights non-positive: the matching must be empty.
	g := gen.Reweight(gen.Path(10), func(e, u, v int) float64 { return -1 })
	m, _ := Run(g, 0.1, 13, true)
	if m.Size() != 0 {
		t.Fatalf("matched %d non-positive edges", m.Size())
	}
}

func TestClassesHelper(t *testing.T) {
	if Classes(100, 0.1) < 11 {
		t.Fatalf("Classes(100, 0.1) = %d too small", Classes(100, 0.1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Classes accepted eps=0")
		}
	}()
	Classes(10, 0)
}

func TestLocalGreedyHalfOnRandom(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 15; trial++ {
		n := 6 + r.Intn(25)
		g := gen.UniformWeights(r.Fork(uint64(50+trial)), gen.Gnp(r.Fork(uint64(trial)), n, 0.25), 1, 10)
		m, _ := LocalGreedy(g, uint64(trial), 0, true)
		if err := m.Verify(g); err != nil {
			t.Fatal(err)
		}
		opt := exact.MWM(g, false)
		if m.Weight(g) < opt.Weight(g)/2-1e-9 {
			t.Fatalf("trial %d: local greedy %.3f below half of %.3f", trial, m.Weight(g), opt.Weight(g))
		}
	}
}

func TestLocalGreedyPathologySerializes(t *testing.T) {
	// On the adversarial chain, local greedy needs Θ(n) iterations while
	// the weight-class algorithm stays polylogarithmic: this is ablation
	// A4 in EXPERIMENTS.md.
	n := 120
	g := gen.AdversarialChain(n)
	_, greedyStats := LocalGreedy(g, 1, 0, true)
	_, classStats := Run(g, 0.1, 1, true)
	if greedyStats.Rounds < n/3 {
		t.Fatalf("expected Θ(n) greedy rounds, got %d for n=%d", greedyStats.Rounds, n)
	}
	if classStats.Rounds >= greedyStats.Rounds {
		t.Fatalf("weight classes (%d rounds) should beat local greedy (%d rounds) on the chain",
			classStats.Rounds, greedyStats.Rounds)
	}
}
