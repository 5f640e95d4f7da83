package dynamic

import (
	"fmt"
	"reflect"
	"testing"

	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// pinSlab is a sparse bipartite slab with every fifth node pinned by
// pinEvery5: enough structure for regional repairs, overflows and audit
// failures to all happen.
func pinSlab() *graph.Graph {
	return gen.BipartiteGnp(rng.New(3), 40, 40, 0.08)
}

func pinEvery5(t *testing.T, mt *Maintainer) []int {
	t.Helper()
	var pins []int
	for v := 0; v < mt.Graph().N(); v += 5 {
		if !mt.SetPinned(v, true) {
			t.Fatalf("pinning free node %d refused", v)
		}
		pins = append(pins, v)
	}
	return pins
}

// assertPinsFree checks the served matching is valid on the live
// subgraph and leaves every pinned node unmatched.
func assertPinsFree(t *testing.T, mt *Maintainer, pins []int, label string) {
	t.Helper()
	m := mt.Matching()
	if err := m.Verify(mt.Graph()); err != nil {
		t.Fatalf("%s: invalid matching: %v", label, err)
	}
	for _, e := range m.Edges(mt.Graph()) {
		if !mt.Live(e) {
			t.Fatalf("%s: matched edge %d is dead", label, e)
		}
	}
	for _, v := range pins {
		if !mt.Pinned(v) {
			t.Fatalf("%s: node %d lost its pin", label, v)
		}
		if e := m.MatchedEdge(v); e >= 0 {
			t.Fatalf("%s: pinned node %d matched on edge %d", label, v, e)
		}
	}
}

// unpinnedGraph is g's live subgraph with every pinned node's edges
// removed — what a pinned Maintainer's certificate covers.
func unpinnedGraph(mt *Maintainer, pins []int) *graph.Graph {
	pinned := map[int]bool{}
	for _, v := range pins {
		pinned[v] = true
	}
	g := mt.Graph()
	b := graph.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.SetSide(v, int8(g.Side(v)))
	}
	for e := 0; e < g.M(); e++ {
		if x, y := g.Endpoints(e); mt.Live(e) && !pinned[x] && !pinned[y] {
			b.AddEdge(x, y)
		}
	}
	return b.MustBuild()
}

// TestPinnedNodeNeverMatched drives every repair path a Maintainer has —
// cold Recompute, regional repair, the warm full repair of a region
// overflow, an audit's repair, and the AlwaysRecompute cold solve — with
// a fifth of the nodes pinned, and asserts no pinned node is ever
// matched while the certificate still holds on the unpinned subgraph.
func TestPinnedNodeNeverMatched(t *testing.T) {
	g := pinSlab()
	r := rng.New(17)
	churn := func(mt *Maintainer, pins []int, label string) {
		for step := 0; step < 30; step++ {
			var b Batch
			for i := 0; i < 4; i++ {
				op := Insert
				if r.Intn(2) == 0 {
					op = Delete
				}
				b = append(b, Update{Edge: r.Intn(g.M()), Op: op})
			}
			mt.Apply(b)
			assertPinsFree(t, mt, pins, fmt.Sprintf("%s step %d", label, step))
		}
	}

	t.Run("regional", func(t *testing.T) {
		mt := New(g, Options{K: 3, Seed: 5, AuditEvery: -1, MaxRegionFrac: 1})
		defer mt.Close()
		pins := pinEvery5(t, mt)
		mt.Recompute()
		assertPinsFree(t, mt, pins, "recompute")
		churn(mt, pins, "regional")
		if tot := mt.Totals(); tot.Repairs == 0 || tot.Recomputes != 1 {
			t.Fatalf("want regional repairs only after the first recompute: %+v", tot)
		}
	})

	t.Run("overflow", func(t *testing.T) {
		mt := New(g, Options{K: 3, Seed: 5, AuditEvery: -1, MaxRegionFrac: 0.01})
		defer mt.Close()
		pins := pinEvery5(t, mt)
		mt.Recompute()
		churn(mt, pins, "overflow")
		if tot := mt.Totals(); tot.Repairs != 0 || tot.Recomputes < 2 {
			t.Fatalf("want warm full repairs only: %+v", tot)
		}
	})

	t.Run("audit", func(t *testing.T) {
		mt := New(g, Options{K: 3, Seed: 5, AuditEvery: -1})
		defer mt.Close()
		pins := pinEvery5(t, mt)
		// An empty matching has augmenting paths of length 1 everywhere:
		// the audit fails and its warm full repair must route around the
		// pins.
		empty := make([]int32, g.N())
		for v := range empty {
			empty[v] = -1
		}
		if err := mt.Adopt(empty, false); err != nil {
			t.Fatal(err)
		}
		rep := mt.Audit()
		if mt.Totals().AuditFailures != 1 || !rep.Recomputed {
			t.Fatalf("audit did not fail and repair: %+v", rep)
		}
		if !rep.CertificateOK {
			t.Fatalf("post-repair audit uncertified: %+v", rep)
		}
		assertPinsFree(t, mt, pins, "audit repair")
		opt := exact.MaxCardinality(unpinnedGraph(mt, pins)).Size()
		if got := mt.Matching().Size(); 3*got < 2*opt {
			t.Fatalf("certified |M| = %d below (1-1/3) of the unpinned optimum %d", got, opt)
		}
		churn(mt, pins, "after audit")
	})

	t.Run("cold", func(t *testing.T) {
		mt := New(g, Options{K: 3, Seed: 5, AlwaysRecompute: true})
		defer mt.Close()
		pins := pinEvery5(t, mt)
		churn(mt, pins, "cold")
	})
}

// TestPinReleaseSeedsRepair pins the release contract: a node pinned
// across an insert stays unmatched, and releasing it makes the very next
// Apply — with an empty batch and no audit due — repair through it.
func TestPinReleaseSeedsRepair(t *testing.T) {
	mt := New(slab44(), Options{K: 3, Seed: 7, StartEmpty: true, AuditEvery: -1})
	defer mt.Close()
	if !mt.SetPinned(4, true) {
		t.Fatal("pinning a free node refused")
	}
	mt.Apply(Batch{{Edge: eid(0, 0), Op: Insert}})
	if mt.Matching().Size() != 0 {
		t.Fatal("edge to a pinned node was matched")
	}
	if !mt.Live(eid(0, 0)) || mt.LiveGraph().M() != 1 {
		t.Fatal("pinned node's edge left the liveness mirror")
	}
	if !mt.SetPinned(4, false) || mt.PinnedNodes() != 0 {
		t.Fatal("release failed")
	}
	rep := mt.Apply(nil)
	if rep.Touched != 1 || rep.RegionNodes == 0 || rep.Recomputed || rep.Audited {
		t.Fatalf("release did not seed a regional repair: %+v", rep)
	}
	if mt.Matching().MatchedEdge(4) != eid(0, 0) {
		t.Fatal("released node not matched by the seeded repair")
	}
	// The seed is consumed: the next empty Apply repairs nothing.
	if rep := mt.Apply(nil); rep.Touched != 0 || rep.RegionNodes != 0 {
		t.Fatalf("seed replayed: %+v", rep)
	}
}

// TestSetPinnedRefusesCoveredNode pins the never-pinned-and-matched
// rule: pinning a node the Maintainer's own matching covers is refused
// with no effect, and repeated pins and releases are no-ops.
func TestSetPinnedRefusesCoveredNode(t *testing.T) {
	mt := New(slab44(), Options{K: 3, Seed: 7, StartEmpty: true})
	defer mt.Close()
	mt.Apply(Batch{{Edge: eid(0, 0), Op: Insert}})
	before := mt.Matching()
	if mt.SetPinned(0, true) || mt.SetPinned(4, true) {
		t.Fatal("pinning a matched node was not refused")
	}
	if mt.Pinned(0) || mt.Pinned(4) || mt.PinnedNodes() != 0 || mt.Matching() != before {
		t.Fatal("a refused pin changed state")
	}
	for i := 0; i < 2; i++ {
		if !mt.SetPinned(1, true) || mt.PinnedNodes() != 1 {
			t.Fatalf("pin %d of a free node: count %d", i, mt.PinnedNodes())
		}
	}
	if !mt.SetPinned(2, false) || mt.PinnedNodes() != 1 {
		t.Fatal("releasing an unpinned node was not a no-op")
	}
}

// TestPinnedLiveGraphMirror: pins hide edges from the engine only —
// LiveGraph and Live report the same live subgraph as an unpinned
// Maintainer with the same liveness.
func TestPinnedLiveGraphMirror(t *testing.T) {
	g := pinSlab()
	plain := New(g, Options{K: 3, Seed: 5})
	defer plain.Close()
	pinned := New(g, Options{K: 3, Seed: 5})
	defer pinned.Close()
	pinEvery5(t, pinned)
	r := rng.New(23)
	for step := 0; step < 10; step++ {
		var b Batch
		for i := 0; i < 6; i++ {
			b = append(b, Update{Edge: r.Intn(g.M()), Op: Op(r.Intn(3)), Weight: float64(1 + r.Intn(9))})
		}
		plain.Apply(b)
		pinned.Apply(b)
	}
	edges := func(lg *graph.Graph) [][3]float64 {
		var out [][3]float64
		for e := 0; e < lg.M(); e++ {
			x, y := lg.Endpoints(e)
			out = append(out, [3]float64{float64(x), float64(y), lg.Weight(e)})
		}
		return out
	}
	if a, b := edges(plain.LiveGraph()), edges(pinned.LiveGraph()); !reflect.DeepEqual(a, b) {
		t.Fatalf("LiveGraph differs under pins:\n plain  %v\n pinned %v", a, b)
	}
	for e := 0; e < g.M(); e++ {
		if plain.Live(e) != pinned.Live(e) {
			t.Fatalf("Live(%d) differs under pins", e)
		}
	}
}

// TestAdoptRestoreReleaseCoveredPins: installing a matching that covers
// a pinned node releases that pin (and only that one), keeping the
// never-pinned-and-matched rule across the push-back and rebuild hooks.
func TestAdoptRestoreReleaseCoveredPins(t *testing.T) {
	g := slab44()
	matched := make([]int32, g.N())
	for v := range matched {
		matched[v] = -1
	}
	matched[0], matched[4] = int32(eid(0, 0)), int32(eid(0, 0))
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	for name, install := range map[string]func(mt *Maintainer) error{
		"adopt":           func(mt *Maintainer) error { return mt.Adopt(matched, false) },
		"adopt certified": func(mt *Maintainer) error { return mt.Adopt(matched, true) },
		"restore":         func(mt *Maintainer) error { return mt.Restore(live, nil, matched) },
	} {
		mt := New(g, Options{K: 3, Seed: 7})
		for _, v := range []int{0, 1} {
			if !mt.SetPinned(v, true) {
				t.Fatalf("%s: pin %d refused", name, v)
			}
		}
		if err := install(mt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mt.Pinned(0) || !mt.Pinned(1) || mt.PinnedNodes() != 1 {
			t.Fatalf("%s: pins after install: 0=%v 1=%v count=%d", name, mt.Pinned(0), mt.Pinned(1), mt.PinnedNodes())
		}
		// The Maintainer still repairs around the remaining pin.
		mt.Apply(nil)
		if m := mt.Matching(); m.MatchedEdge(1) >= 0 || m.MatchedEdge(0) < 0 {
			t.Fatalf("%s: matching after install %v", name, m.Edges(g))
		}
		mt.Close()
	}
}
