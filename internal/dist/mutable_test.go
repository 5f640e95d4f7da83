package dist

import (
	"math"
	"testing"

	"distmatch/internal/graph"
)

// maskGraph is the fixed slab the mutable-topology tests run over: a
// 4-cycle plus one chord, so masking can disconnect it.
//
//	0 - 1
//	|   | \
//	3 - 2  (chord 1-3)
func maskGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(1, 3)
	return b.MustBuild()
}

type ping struct{ Signal }

// bfsDistances floods from node 0 with SendAll and records each node's
// first-reception round — the BFS distance over whatever edges deliver.
func bfsDistances(r *Runner, seed uint64, rounds int) []int {
	n := r.Graph().N()
	dist := make([]int, n)
	r.RunFlat(seed, func(*Node) RoundProgram {
		d, rr := -1, 0
		return &stepProg{
			init: func(nd *Node) bool {
				if nd.ID() == 0 {
					d = 0
					nd.SendAll(ping{})
				}
				dist[nd.ID()] = d
				return rounds > 0
			},
			onRound: func(nd *Node, in []Incoming) bool {
				rr++
				if d == -1 && len(in) > 0 {
					d = rr
					nd.SendAll(ping{})
				}
				dist[nd.ID()] = d
				return rr < rounds
			},
		}
	})
	return dist
}

func TestMaskDropsMessages(t *testing.T) {
	g := maskGraph(t)
	r := NewRunner(g, Config{})
	defer r.Close()

	// All live: everything is 1 hop from node 0 except node 2.
	if got := bfsDistances(r, 1, 4); got[1] != 1 || got[3] != 1 || got[2] != 2 {
		t.Fatalf("unmasked distances = %v", got)
	}

	// Kill 0-1 and 1-3: node 1 is now only reachable through 2.
	r.SetEdgeLive(g.EdgeBetween(0, 1), false)
	r.SetEdgeLive(g.EdgeBetween(1, 3), false)
	got := bfsDistances(r, 1, 4)
	want := []int{0, 3, 2, 1}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("masked distances = %v, want %v", got, want)
		}
	}

	// Kill the remaining edges at node 3: disconnects {0} from the rest.
	r.SetEdgeLive(g.EdgeBetween(3, 0), false)
	r.SetEdgeLive(g.EdgeBetween(2, 3), false)
	got = bfsDistances(r, 1, 4)
	for v := 1; v < 4; v++ {
		if got[v] != -1 {
			t.Fatalf("disconnected distances = %v, want -1 for nodes 1..3", got)
		}
	}

	// Reactivation restores the original topology.
	r.ResetTopology()
	if got := bfsDistances(r, 1, 4); got[1] != 1 || got[2] != 2 || got[3] != 1 {
		t.Fatalf("post-reset distances = %v", got)
	}
}

// TestMaskedRunMatchesSubgraphRun: a masked run behaves exactly like a
// fresh run on the materialized live subgraph (for a port-order-free
// protocol; port numberings differ between slab and subgraph).
func TestMaskedRunMatchesSubgraphRun(t *testing.T) {
	g := maskGraph(t)
	r := NewRunner(g, Config{})
	defer r.Close()
	r.SetEdgeLive(g.EdgeBetween(1, 3), false)
	r.SetEdgeLive(g.EdgeBetween(0, 1), false)

	masked := bfsDistances(r, 7, 6)

	sub := r.LiveSubgraph()
	r2 := NewRunner(sub, Config{})
	defer r2.Close()
	direct := bfsDistances(r2, 7, 6)
	for v := range masked {
		if masked[v] != direct[v] {
			t.Fatalf("masked %v != subgraph %v", masked, direct)
		}
	}
}

func TestMaskAccounting(t *testing.T) {
	g := maskGraph(t)
	r := NewRunner(g, Config{})
	defer r.Close()
	r.SetEdgeLive(g.EdgeBetween(1, 3), false)

	// One SendAll per node, one round: 2*(live edges) messages total, and
	// explicit Sends on dead ports charge nothing.
	st := r.RunFlat(3, once(func(nd *Node) {
		nd.SendAll(ping{})
		// Also try an explicit send on every dead port: must be dropped.
		for p := 0; p < nd.Deg(); p++ {
			if !nd.EdgeLive(p) {
				nd.Send(p, ping{})
			}
		}
	}))
	if want := int64(2 * 4); st.Messages != want {
		t.Fatalf("Messages = %d, want %d (only live arcs charged)", st.Messages, want)
	}
}

func TestWeightOverlay(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddWeightedEdge(0, 1, 2.5)
	g := b.MustBuild()
	r := NewRunner(g, Config{})
	defer r.Close()

	readW := func() float64 {
		var w float64
		r.RunFlat(1, once(func(nd *Node) {
			if nd.ID() == 0 {
				w = nd.EdgeWeight(0)
			}
		}))
		return w
	}
	if w := readW(); w != 2.5 {
		t.Fatalf("initial EdgeWeight = %v", w)
	}
	r.SetEdgeWeight(0, 7)
	if w := r.EdgeWeight(0); w != 7 {
		t.Fatalf("Runner.EdgeWeight = %v after override", w)
	}
	if w := readW(); w != 7 {
		t.Fatalf("node EdgeWeight = %v after override", w)
	}
	if g.Weight(0) != 2.5 {
		t.Fatalf("graph weight mutated: %v", g.Weight(0))
	}
	r.ResetTopology()
	if w := readW(); w != 2.5 {
		t.Fatalf("EdgeWeight = %v after ResetTopology", w)
	}
}

func TestLiveSubgraph(t *testing.T) {
	g := maskGraph(t)
	r := NewRunner(g, Config{})
	defer r.Close()
	dead := g.EdgeBetween(1, 3)
	r.SetEdgeLive(dead, false)
	r.SetEdgeWeight(g.EdgeBetween(0, 1), 9)

	sub := r.LiveSubgraph()
	if sub.N() != g.N() || sub.M() != g.M()-1 {
		t.Fatalf("subgraph %v, want n=%d m=%d", sub, g.N(), g.M()-1)
	}
	if sub.EdgeBetween(1, 3) != -1 {
		t.Fatal("dead edge materialized")
	}
	if e := sub.EdgeBetween(0, 1); e == -1 || sub.Weight(e) != 9 {
		t.Fatalf("weight overlay not materialized")
	}
	if !sub.IsBipartite() && g.IsBipartite() {
		t.Fatal("bipartition lost")
	}
	if math.IsNaN(sub.TotalWeight()) {
		t.Fatal("NaN weight")
	}
}
