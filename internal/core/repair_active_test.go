package core

// Active-set conformance for the repair layer: running the §3.2 phases
// over a region with the engine restricted to that region (only region
// nodes stepped) must be bit-identical — matching, rounds, messages,
// bits, per-round profile — to the PR-4 full sweep in which frozen nodes
// step idly through every round, across topologies × worker counts ×
// repairer forms. This is the contract internal/dynamic's
// Maintainer relies on for every incremental Apply.

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

// growBall grows a hop ball around seed over live edges with a mate
// closure — a test-local twin of a hop-ball region policy — and installs
// it as r's active set.
func growBall(r *dist.Runner, matchedEdge []int32, seed int32, hops int) []int32 {
	g := r.Graph()
	in := make([]bool, g.N())
	ball := []int32{seed}
	in[seed] = true
	start := 0
	for hop := 0; hop < hops && start < len(ball); hop++ {
		end := len(ball)
		for _, v := range ball[start:end] {
			for p := 0; p < g.Deg(int(v)); p++ {
				if u := g.NbrAt(int(v), p); r.EdgeLive(g.EdgeAt(int(v), p)) && !in[u] {
					in[u] = true
					ball = append(ball, int32(u))
				}
			}
		}
		start = end
	}
	for _, v := range ball[:len(ball):len(ball)] {
		if me := matchedEdge[v]; me >= 0 {
			if u := g.Other(int(me), int(v)); !in[u] {
				in[u] = true
				ball = append(ball, int32(u))
			}
		}
	}
	r.SetActive(ball)
	return ball
}

// TestRepairActiveSetConformance drives two repair stages (empty-start
// augmentation, then a second repair of a fresh region warm from the
// first result) on every topology × worker count, comparing the
// full-sweep and active-set executions slot for slot and both with the
// committed digests.
func TestRepairActiveSetConformance(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":   gen.BipartiteGnp(rng.New(71), 18, 16, 0.2),
		"dense": gen.BipartiteGnp(rng.New(72), 10, 10, 0.5),
		"path":  gen.Path(23),
	}
	tab := golden.Open(t, "repair_active")
	digest := func(matched []int32, sts []*dist.Stats) *golden.Digest {
		d := golden.New().Add(matched)
		for _, st := range sts {
			d.Stats(st)
		}
		return d
	}
	for name, g := range tops {
		if g.M() == 0 {
			continue
		}
		n := g.N()
		for _, k := range []int{2, 3} {
			for _, workers := range []int{1, 3} {
				{
					label := name
					runRepairs := func(active bool) ([]int32, []*dist.Stats) {
						r := dist.NewRunner(g, dist.Config{Workers: workers, Profile: true})
						defer r.Close()
						matched := make([]int32, n)
						for v := range matched {
							matched[v] = -1
						}
						br := NewBipartiteRepairer(r, matched, RepairOptions{K: k, Oracle: true})
						var sts []*dist.Stats
						for stage, seed := range []int32{0, int32(n / 2)} {
							ids := growBall(r, matched, seed, 2*k-1)
							region := make([]bool, n)
							for _, v := range ids {
								region[v] = true
							}
							if active {
								// Engine schedule = region: the Runner's
								// active set is already the grown ball.
								sts = append(sts, br.Repair(uint64(100+stage), r.ActiveMask()))
							} else {
								r.ClearActive()
								sts = append(sts, br.Repair(uint64(100+stage), region))
							}
						}
						return matched, sts
					}
					fullM, fullSt := runRepairs(false)
					actM, actSt := runRepairs(true)
					tab.Check(t, fmt.Sprintf("%s/k=%d/full", name, k), digest(fullM, fullSt))
					tab.Check(t, fmt.Sprintf("%s/k=%d/active", name, k), digest(actM, actSt))
					if !reflect.DeepEqual(fullM, actM) {
						t.Fatalf("%s k=%d w=%d: matchings diverge\nfull %v\nact  %v",
							label, k, workers, fullM, actM)
					}
					for i := range fullSt {
						if fullSt[i].Rounds != actSt[i].Rounds || fullSt[i].Messages != actSt[i].Messages ||
							fullSt[i].Bits != actSt[i].Bits {
							t.Fatalf("%s k=%d w=%d stage %d: stats diverge: full %v vs active %v",
								label, k, workers, i, fullSt[i], actSt[i])
						}
						if !reflect.DeepEqual(fullSt[i].Profile, actSt[i].Profile) {
							t.Fatalf("%s k=%d w=%d stage %d: profiles diverge", label, k, workers, i)
						}
						if actSt[i].NodeRounds > fullSt[i].NodeRounds {
							t.Fatalf("%s stage %d: active swept more than full (%d > %d)",
								label, i, actSt[i].NodeRounds, fullSt[i].NodeRounds)
						}
					}
				}
			}
		}
	}
}

// TestRepairActiveNodeRoundsScaleWithRegion pins the point of the
// feature: on a large sparse slab, a small-region repair's sweep work
// under active-set execution is a small fraction of the full-sweep
// equivalent (which steps all n nodes every round).
func TestRepairActiveNodeRoundsScaleWithRegion(t *testing.T) {
	g := gen.BipartiteRegular(rng.New(3), 256, 3) // 512 nodes, degree 3
	n := g.N()
	k := 2
	run := func(active bool) (*dist.Stats, int) {
		r := dist.NewRunner(g, dist.Config{})
		defer r.Close()
		matched := make([]int32, n)
		for v := range matched {
			matched[v] = -1
		}
		ids := growBall(r, matched, 0, 2*k-1)
		region := make([]bool, n)
		for _, v := range ids {
			region[v] = true
		}
		if !active {
			r.ClearActive()
		}
		st := RepairBipartite(r, 9, matched, regionArg(active, r, region), RepairOptions{K: k, Oracle: true})
		return st, len(ids)
	}
	fullSt, _ := run(false)
	actSt, region := run(true)
	if region >= n/4 {
		t.Fatalf("test premise broken: region %d not small vs n=%d", region, n)
	}
	if fullSt.Rounds != actSt.Rounds || fullSt.Messages != actSt.Messages {
		t.Fatalf("conformance broke: %v vs %v", fullSt, actSt)
	}
	if want := int64(region) * int64(actSt.Rounds+1); actSt.NodeRounds != want {
		t.Fatalf("active NodeRounds = %d, want %d", actSt.NodeRounds, want)
	}
	if actSt.NodeRounds*4 > fullSt.NodeRounds {
		t.Fatalf("active sweep work %d not ≪ full %d (region %d of %d nodes)",
			actSt.NodeRounds, fullSt.NodeRounds, region, n)
	}
}

func regionArg(active bool, r *dist.Runner, region []bool) []bool {
	if active {
		return r.ActiveMask()
	}
	return region
}
