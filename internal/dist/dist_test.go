package dist

import (
	"fmt"
	"strings"
	"testing"

	"distmatch/internal/graph"
)

// triangle builds the hand-auditable 3-node graph used by the accounting
// tests: edges (0,1), (0,2), (1,2); every node has degree 2.
func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	return b.MustBuild()
}

// path4 builds the bipartite path 0-1-2-3.
func path4(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.MustBuild()
}

// ring builds the n-cycle, a deterministic regular test topology.
func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.MustBuild()
}

// once adapts a single-segment body to a RoundProgram that finishes in
// round 0.
func once(f func(nd *Node)) func(*Node) RoundProgram {
	return func(*Node) RoundProgram {
		return &stepProg{init: func(nd *Node) bool { f(nd); return false }}
	}
}

// forever is a program that never finishes on its own.
func forever(*Node) RoundProgram {
	return &stepProg{
		init:    func(nd *Node) bool { return true },
		onRound: func(nd *Node, in []Incoming) bool { return true },
	}
}

func TestNodeGeometry(t *testing.T) {
	g := triangle(t)
	RunFlat(g, Config{Seed: 1}, once(func(nd *Node) {
		if nd.N() != 3 || nd.Deg() != 2 || nd.MaxDegree() != 2 {
			t.Errorf("node %d: bad geometry N=%d deg=%d Δ=%d", nd.ID(), nd.N(), nd.Deg(), nd.MaxDegree())
		}
		for p := 0; p < nd.Deg(); p++ {
			u := nd.NbrID(p)
			e := nd.EdgeID(p)
			a, b := g.Endpoints(e)
			if (a != nd.ID() || b != u) && (b != nd.ID() || a != u) {
				t.Errorf("node %d port %d: edge %d=(%d,%d) does not join %d-%d",
					nd.ID(), p, e, a, b, nd.ID(), u)
			}
			if nd.EdgeWeight(p) != 1 {
				t.Errorf("unweighted edge reported weight %v", nd.EdgeWeight(p))
			}
		}
	}))
}

// triangleAudit is traffic that can be counted by hand: on the triangle,
// each node sends one Signal to each neighbor in round 1 (6 messages, 6
// bits), then node 0 alone sends one 5-bit Count in round 2 (1 message),
// then everyone submits to the OR oracle (round 3).
func triangleAudit(t *testing.T) func(*Node) RoundProgram {
	return func(*Node) RoundProgram {
		round := 0
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SendAll(Signal{})
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				round++
				switch round {
				case 1:
					if len(in) != 2 {
						t.Errorf("node %d: %d incoming, want 2", nd.ID(), len(in))
					}
					if nd.ID() == 0 {
						nd.Send(1, Count(17)) // 17 needs 5 bits
					}
					return true
				case 2:
					for _, m := range in {
						if c, ok := m.Msg.(Count); !ok || c != 17 {
							t.Errorf("node %d: unexpected delivery %v", nd.ID(), m)
						}
					}
					nd.SubmitOr(false)
					return true
				}
				return false
			},
		}
	}
}

// checkTriangleAudit audits every Stats field of a triangleAudit run.
func checkTriangleAudit(t *testing.T, label string, st *Stats) {
	t.Helper()
	if st.Rounds != 3 || st.Messages != 7 || st.Bits != 6+5 || st.MaxMessageBits != 5 {
		t.Fatalf("%s: rounds/messages/bits/peak = %d/%d/%d/%d, want 3/7/11/5",
			label, st.Rounds, st.Messages, st.Bits, st.MaxMessageBits)
	}
	if st.OracleCalls != 3 {
		t.Fatalf("%s: OracleCalls = %d, want 3 (one per node)", label, st.OracleCalls)
	}
	if st.NodeRounds != 3*4 {
		t.Fatalf("%s: NodeRounds = %d, want 12 (3 nodes × 4 segments)", label, st.NodeRounds)
	}
	if len(st.Profile) != 3 {
		t.Fatalf("%s: Profile has %d rounds, want 3", label, len(st.Profile))
	}
	p := st.Profile
	if p[0].Messages != 6 || p[0].Bits != 6 || p[0].MaxBits != 1 || p[0].Oracle {
		t.Fatalf("%s: round 0 profile wrong: %+v", label, p[0])
	}
	if p[1].Messages != 1 || p[1].Bits != 5 || p[1].MaxBits != 5 || p[1].Oracle {
		t.Fatalf("%s: round 1 profile wrong: %+v", label, p[1])
	}
	if p[2].Messages != 0 || !p[2].Oracle {
		t.Fatalf("%s: round 2 profile wrong: %+v", label, p[2])
	}
	// Pipelining estimate: rounds of 1, 5 and 0 bits under a 2-bit cap
	// cost ⌈1/2⌉+⌈5/2⌉+1 = 1+3+1.
	if pr := st.PipelinedRounds(2); pr != 5 {
		t.Fatalf("%s: PipelinedRounds(2) = %d, want 5", label, pr)
	}
	if pr := st.PipelinedRounds(0); pr != st.Rounds {
		t.Fatalf("%s: PipelinedRounds(0) = %d, want Rounds", label, pr)
	}
	if s := st.String(); !strings.Contains(s, "rounds=3") {
		t.Fatalf("%s: String() = %q", label, s)
	}
}

// TestStatsAccounting audits every Stats field on the hand-countable
// triangle traffic.
func TestStatsAccounting(t *testing.T) {
	checkTriangleAudit(t, "fresh", RunFlat(triangle(t), Config{Seed: 7, Profile: true}, triangleAudit(t)))
}

// TestDeliveryAndPortOrder checks that messages arrive on the right ports
// in increasing port order, exactly one round after being sent.
func TestDeliveryAndPortOrder(t *testing.T) {
	g := ring(5)
	type tag struct {
		Signal
		from int32
	}
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		round := 0
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SendAll(tag{from: int32(nd.ID())})
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				round++
				if round == 2 {
					// No further sends: this round must deliver nothing.
					if len(in) != 0 {
						t.Errorf("node %d: stale delivery %v", nd.ID(), in)
					}
					return false
				}
				if len(in) != 2 {
					t.Errorf("node %d: %d incoming", nd.ID(), len(in))
				}
				for i, m := range in {
					if i > 0 && in[i-1].Port >= m.Port {
						t.Errorf("node %d: ports out of order: %v", nd.ID(), in)
					}
					if int(m.Msg.(tag).from) != nd.NbrID(m.Port) {
						t.Errorf("node %d: message from %d arrived on port to %d",
							nd.ID(), m.Msg.(tag).from, nd.NbrID(m.Port))
					}
				}
				return true
			},
		}
	})
}

// TestDeterminismAcrossWorkerCounts is the parallel-equals-serial proof:
// a randomized protocol (a one-shot proposal exchange with per-node coin
// flips) must produce bit-identical transcripts for any worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	g := ring(257) // odd prime, forces uneven chunks
	run := func(workers int) ([]uint64, Stats) {
		out := make([]uint64, g.N())
		st := RunFlat(g, Config{Seed: 42, Workers: workers}, func(*Node) RoundProgram {
			round := 0
			send := func(nd *Node) { nd.Send(nd.Rand().Intn(nd.Deg()), Count(float64(nd.ID()+round))) }
			return &stepProg{
				init: func(nd *Node) bool { send(nd); return true },
				onRound: func(nd *Node, in []Incoming) bool {
					h := out[nd.ID()]
					for _, m := range in {
						h = h*1000003 + uint64(m.Port)<<32 + uint64(float64(m.Msg.(Count)))
					}
					out[nd.ID()] = h
					round++
					if round == 8 {
						return false
					}
					send(nd)
					return true
				},
			}
		})
		return out, *st
	}
	base, baseStats := run(1)
	for _, workers := range []int{2, 3, 8, 64} {
		got, gotStats := run(workers)
		for v := range base {
			if got[v] != base[v] {
				t.Fatalf("workers=%d: node %d transcript differs", workers, v)
			}
		}
		if gotStats.Rounds != baseStats.Rounds || gotStats.Messages != baseStats.Messages ||
			gotStats.Bits != baseStats.Bits || gotStats.MaxMessageBits != baseStats.MaxMessageBits ||
			gotStats.OracleCalls != baseStats.OracleCalls {
			t.Fatalf("workers=%d: stats differ: %v vs %v", workers, gotStats.String(), baseStats.String())
		}
	}
}

// TestSeedSensitivity: different seeds give different random streams.
func TestSeedSensitivity(t *testing.T) {
	g := ring(16)
	draw := func(seed uint64) uint64 {
		var acc uint64
		RunFlat(g, Config{Seed: seed}, once(func(nd *Node) {
			v := nd.Rand().Uint64()
			if nd.ID() == 0 {
				acc = v
			}
		}))
		return acc
	}
	if draw(1) == draw(2) {
		t.Fatal("seeds 1 and 2 produced identical streams")
	}
	if draw(1) != draw(1) {
		t.Fatal("same seed produced different streams")
	}
}

// TestEarlyReturnAndFinalSends: a node may finish while others continue;
// its final-segment sends are delivered exactly once — in staged delivery
// too, where the finished node's out-slots must be washed — and rounds
// keep counting while anyone is running.
func TestEarlyReturnAndFinalSends(t *testing.T) {
	g := path4(t)
	for _, workers := range []int{1, 2} {
		heard := 0
		st := RunFlat(g, Config{Seed: 1, Workers: workers}, func(*Node) RoundProgram {
			step := 0
			return &stepProg{
				init: func(nd *Node) bool {
					if nd.ID() == 0 {
						nd.Send(0, Bit(true)) // farewell to node 1, then exit
						return false
					}
					return true
				},
				onRound: func(nd *Node, in []Incoming) bool {
					step++
					if nd.ID() == 1 {
						heard += len(in)
					}
					return step < 3 // three rounds among the survivors
				},
			}
		})
		if heard != 1 {
			t.Fatalf("workers=%d: node 1 heard %d messages, want the farewell once", workers, heard)
		}
		if st.Rounds != 3 || st.Messages != 1 {
			t.Fatalf("workers=%d: stats = %v, want rounds=3 messages=1", workers, st)
		}
	}
}

// TestPanicPropagation: a node-program panic aborts the run and re-panics
// with the same value in the caller; the other nodes' programs are
// cancelled.
func TestPanicPropagation(t *testing.T) {
	g := triangle(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom-2") {
			t.Fatalf("wrong panic value: %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		return &stepProg{
			init: func(nd *Node) bool { return true },
			onRound: func(nd *Node, in []Incoming) bool {
				if nd.ID() == 2 {
					panic("boom-2")
				}
				return true // survivors would run forever without the abort
			},
		}
	})
	t.Fatal("RunFlat returned despite panic")
}

// TestPanicLowestIDWins: when several nodes panic in the same round, the
// reported value is deterministic (lowest node id) — here from Init, the
// round-0 segment.
func TestPanicLowestIDWins(t *testing.T) {
	g := ring(6)
	for trial := 0; trial < 3; trial++ {
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != "boom-1" {
					t.Fatalf("got %v, want boom-1", r)
				}
			}()
			RunFlat(g, Config{Seed: uint64(trial), Workers: 1 + trial}, func(*Node) RoundProgram {
				return &stepProg{
					init: func(nd *Node) bool {
						if nd.ID()%2 == 1 {
							panic(fmt.Sprintf("boom-%d", nd.ID()))
						}
						return true
					},
					onRound: func(*Node, []Incoming) bool { return false },
				}
			})
		}()
	}
}

// TestMaxRoundsExactFitSurvives: a protocol using exactly MaxRounds
// rounds terminates normally — the limit means "exceeds", not "reaches".
func TestMaxRoundsExactFitSurvives(t *testing.T) {
	g := triangle(t)
	st := RunFlat(g, Config{Seed: 1, MaxRounds: 3}, func(*Node) RoundProgram {
		step := 0
		return &stepProg{
			init:    func(nd *Node) bool { return true },
			onRound: func(nd *Node, in []Incoming) bool { step++; return step < 3 },
		}
	})
	if st.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", st.Rounds)
	}
}

// TestMaxRounds: the round limit guards against non-terminating
// protocols, and the abort names how many nodes were still running.
func TestMaxRounds(t *testing.T) {
	g := triangle(t)
	defer func() {
		r := recover()
		if s := fmt.Sprint(r); r == nil || !strings.Contains(s, "MaxRounds") || !strings.Contains(s, "3 nodes still running") {
			t.Fatalf("expected MaxRounds panic naming 3 running nodes, got %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1, MaxRounds: 10, Workers: 3}, forever)
	t.Fatal("runaway protocol was not stopped")
}

// TestDesyncDetection: a round in which some nodes submit to the OR
// oracle and others to the max oracle is a protocol bug the engine must
// flag rather than misaggregate.
func TestDesyncDetection(t *testing.T) {
	g := triangle(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "desync") {
			t.Fatalf("expected desync panic, got %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		return &stepProg{
			init: func(nd *Node) bool {
				if nd.ID() == 0 {
					nd.SubmitOr(true)
				} else {
					nd.SubmitMax(1)
				}
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool { return false },
		}
	})
	t.Fatal("desync was not detected")
}

// TestSendValidation: out-of-range ports and nil messages are rejected.
func TestSendValidation(t *testing.T) {
	g := triangle(t)
	for name, bad := range map[string]func(*Node){
		"port":       func(nd *Node) { nd.Send(2, Signal{}) },
		"negative":   func(nd *Node) { nd.Send(-1, Signal{}) },
		"nilMsg":     func(nd *Node) { nd.Send(0, nil) },
		"nilSendAll": func(nd *Node) { nd.SendAll(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: invalid send not rejected", name)
				}
			}()
			RunFlat(g, Config{Seed: 1}, once(func(nd *Node) {
				if nd.ID() == 0 {
					bad(nd)
				}
			}))
		}()
	}
}

// TestOverwriteOnDoubleSend: the one-message-per-port-per-round rule.
func TestOverwriteOnDoubleSend(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		return &stepProg{
			init: func(nd *Node) bool {
				if nd.ID() == 0 {
					nd.Send(0, Count(1))
					nd.Send(0, Count(2))
				}
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				if nd.ID() == 1 && (len(in) != 1 || in[0].Msg.(Count) != 2) {
					t.Errorf("want single overwritten Count(2), got %v", in)
				}
				return false
			},
		}
	})
}

// TestZeroAndTinyGraphs: a Runner handles empty and edgeless graphs run
// after run (TestFlatZeroAndTinyGraphs covers one-shot RunFlat).
func TestZeroAndTinyGraphs(t *testing.T) {
	empty := NewRunner(graph.NewBuilder(0).MustBuild(), Config{})
	defer empty.Close()
	st := empty.RunFlat(1, func(*Node) RoundProgram {
		t.Error("factory ran on empty graph")
		return nil
	})
	if st.Rounds != 0 {
		t.Fatalf("empty graph ran %d rounds", st.Rounds)
	}
	lone := NewRunner(graph.NewBuilder(1).MustBuild(), Config{})
	defer lone.Close()
	for seed := uint64(1); seed <= 2; seed++ {
		ran := false
		st = lone.RunFlat(seed, func(*Node) RoundProgram {
			return &stepProg{
				init: func(nd *Node) bool {
					ran = true
					nd.SendAll(Signal{}) // degree 0: a no-op
					return true
				},
				onRound: func(nd *Node, in []Incoming) bool {
					if len(in) != 0 {
						t.Errorf("lone node received %v", in)
					}
					return false
				},
			}
		})
		if !ran || st.Rounds != 1 || st.Messages != 0 {
			t.Fatalf("seed %d: lone node run malformed: ran=%v %v", seed, ran, st)
		}
	}
}

// TestMessageBitsHelpers pins the CONGEST accounting units.
func TestMessageBitsHelpers(t *testing.T) {
	if (Signal{}).Bits() != 1 || Bit(true).Bits() != 1 {
		t.Fatal("signal/bit width must be 1")
	}
	for _, tc := range []struct {
		v    Count
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {17, 5}, {1024, 11}, {-4, 3}, {1 << 62, 63}} {
		if got := tc.v.Bits(); got != tc.want {
			t.Errorf("Count(%v).Bits() = %d, want %d", float64(tc.v), got, tc.want)
		}
	}
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}, {1 << 20, 20},
	} {
		if got := IDBits(tc.n); got != tc.want {
			t.Errorf("IDBits(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
