package dynamic

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// TestConcurrentReadsDuringChurn hammers the whole read surface —
// Matching, Health, Totals, Live, Weight, LiveGraph, Pinned,
// PinnedNodes — from several goroutines while Apply churns the topology
// and SetPinned pins and releases nodes, under the race detector.
// This is the contract the sharded serving layer needs: a query must
// never block behind a repair longer than the lock hand-off, and every
// snapshot it sees must be internally consistent (a valid matching on
// the live subgraph the snapshot was cut from — Matching() pins the
// graph, so Verify needs no cross-call coordination).
func TestConcurrentReadsDuringChurn(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(3), 12, 12, 0.3)
	if g.M() < 4 {
		t.Skip("degenerate graph")
	}
	mt := New(g, Options{K: 3, Seed: 5, StartEmpty: true, AuditEvery: 4})
	defer mt.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				m := mt.Matching()
				if err := m.Verify(g); err != nil {
					t.Errorf("reader %d: served matching invalid: %v", w, err)
					return
				}
				// A served edge must have been live at the moment the
				// snapshot was cut; we cannot re-check liveness (it moved
				// on), but the snapshot itself must be a matching, and
				// the cheap read-surface calls must not race the writer.
				h := mt.Health()
				if h > Recovering {
					t.Errorf("reader %d: impossible health %v", w, h)
					return
				}
				tot := mt.Totals()
				if tot.Applies < 0 {
					t.Errorf("reader %d: negative applies", w)
					return
				}
				mt.Live(w % g.M())
				mt.Weight(w % g.M())
				if lg := mt.LiveGraph(); lg.M() > g.M() {
					t.Errorf("reader %d: live graph grew beyond the slab", w)
					return
				}
				mt.Pinned(w % g.N())
				if n := mt.PinnedNodes(); n < 0 || n > g.N() {
					t.Errorf("reader %d: impossible pin count %d", w, n)
					return
				}
				reads.Add(1)
			}
		}(w)
	}

	r := rng.New(17)
	for step := 0; step < 150; step++ {
		mt.SetPinned(step%g.N(), step%3 == 0)
		mt.Apply(randomBatch(r, mt, 4))
	}
	// On one core the churn loop can finish inside a single scheduler
	// quantum with no reader ever completing a pass; keep churning
	// (bounded) and yielding until the hammer has provably overlapped.
	for extra := 0; extra < 5000 && reads.Load() < 8; extra++ {
		mt.Apply(randomBatch(r, mt, 4))
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers never completed a pass; the hammer exercised nothing")
	}
	checkState(t, mt, 0, 0)
}

// TestConcurrentReadsWhileDegraded repeats the hammer across the fault
// window: readers keep pulling snapshots while the writer exhausts the
// recovery ladder and heals. While Degraded every served snapshot is the
// last-good matching — still a valid matching — and afterwards the
// Maintainer certifies as usual. Run under -race this pins that the
// degraded serving path (lastGood + its own cache) is as goroutine-safe
// as the healthy one.
func TestConcurrentReadsWhileDegraded(t *testing.T) {
	mt := New(slab44(), Options{K: 2, Seed: 7, StartEmpty: true})
	defer mt.Close()
	g := mt.Graph()

	mt.Apply(Batch{{Edge: eid(0, 0), Op: Insert}, {Edge: eid(1, 1), Op: Insert}})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := mt.Matching().Verify(g); err != nil {
					t.Errorf("served matching invalid: %v", err)
					return
				}
				mt.Health()
			}
		}()
	}

	mt.InjectFaults(dist.NewFaultPlan([]dist.FaultEvent{
		{Round: 0, Kind: dist.FaultPanic, Node: 2},
	}))
	for step := 0; step < 10; step++ {
		mt.Apply(Batch{{Edge: eid(2, 2), Op: Insert}})
		mt.Apply(Batch{{Edge: eid(2, 2), Op: Delete}})
	}
	mt.InjectFaults(nil)
	for i := 0; i < 8 && mt.Health() != Healthy; i++ {
		mt.Apply(nil)
	}
	stop.Store(true)
	wg.Wait()
	if mt.Health() != Healthy {
		t.Fatalf("did not heal: %v", mt.Health())
	}
	checkState(t, mt, 0, 0)
}
