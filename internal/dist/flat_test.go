package dist

import (
	"fmt"
	"strings"
	"testing"

	"distmatch/internal/graph"
)

// stepProg adapts closures to RoundProgram for concise test machines.
type stepProg struct {
	init    func(nd *Node) bool
	onRound func(nd *Node, in []Incoming) bool
}

func (p *stepProg) Init(nd *Node) bool                   { return p.init(nd) }
func (p *stepProg) OnRound(nd *Node, in []Incoming) bool { return p.onRound(nd, in) }

// TestFlatStatsAccounting pins the audited triangle Stats in both delivery
// modes — one worker scatters, three stage — and through a Runner.
func TestFlatStatsAccounting(t *testing.T) {
	g := triangle(t)
	for _, workers := range []int{1, 3} {
		label := fmt.Sprintf("workers=%d", workers)
		checkTriangleAudit(t, label, RunFlat(g, Config{Seed: 7, Profile: true, Workers: workers}, triangleAudit(t)))
		r := NewRunner(g, Config{Profile: true, Workers: workers})
		checkTriangleAudit(t, label+"/runner", r.RunFlat(7, triangleAudit(t)))
		r.Close()
	}
}

// TestFlatEquivalentToCoroutine runs one engine-level program — sends,
// plain rounds, an OR round and a max round, staggered completion — at
// several worker counts and requires identical per-node transcripts and
// the hand-derived Stats.
func TestFlatEquivalentToCoroutine(t *testing.T) {
	g := ring(257)
	const rounds = 6
	note := func(out []uint64, nd *Node, in []Incoming) {
		h := out[nd.ID()]
		for _, m := range in {
			h = h*1000003 + uint64(m.Port)<<32 + uint64(float64(m.Msg.(Count)))
		}
		out[nd.ID()] = h
	}
	// Six send rounds, the OR round, the max round, and one more round
	// for the even nodes.
	var bits int64
	maxBits := 0
	for v := 0; v < g.N(); v++ {
		for i := 0; i < rounds; i++ {
			b := Count(float64(v + i)).Bits()
			bits += int64(b)
			maxBits = max(maxBits, b)
		}
	}
	var base []uint64
	for _, workers := range []int{1, 2, 7} {
		out := make([]uint64, g.N())
		st := RunFlat(g, Config{Seed: 5, Profile: true, Workers: workers}, func(*Node) RoundProgram {
			i := 0
			return &stepProg{
				init: func(nd *Node) bool {
					nd.Send(nd.Rand().Intn(nd.Deg()), Count(float64(nd.ID())))
					return true
				},
				onRound: func(nd *Node, in []Incoming) bool {
					switch {
					case i < rounds:
						note(out, nd, in)
						i++
						if i < rounds {
							nd.Send(nd.Rand().Intn(nd.Deg()), Count(float64(nd.ID()+i)))
							return true
						}
						nd.SubmitOr(nd.ID()%3 == 0)
						return true
					case i == rounds:
						i++
						nd.SubmitMax(float64(nd.ID()))
						return true
					default:
						i++
						return nd.ID()%2 == 0 && i == rounds+2
					}
				},
			}
		})
		if base == nil {
			base = out
		}
		for v := range base {
			if out[v] != base[v] {
				t.Fatalf("workers=%d: node %d transcript differs", workers, v)
			}
		}
		if st.Rounds != rounds+3 || st.Messages != int64(rounds*g.N()) || st.Bits != bits ||
			st.MaxMessageBits != maxBits || st.OracleCalls != int64(2*g.N()) {
			t.Fatalf("workers=%d: stats %v, want rounds=%d messages=%d bits=%d maxMsgBits=%d oracleCalls=%d",
				workers, st, rounds+3, rounds*g.N(), bits, maxBits, 2*g.N())
		}
	}
}

// TestFlatOracleResults pins SubmitOr/SubmitMax semantics: the global
// result aggregates every submitted value (OR with one true input, OR of
// all-false, max, max of negatives) and arrives in the next round; each
// oracle round charges one call per node.
func TestFlatOracleResults(t *testing.T) {
	g := path4(t)
	vals := []float64{3, -8, 11, 0.5}
	st := RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		step := 0
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SubmitOr(nd.ID() == 2)
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				step++
				switch step {
				case 1:
					if !nd.GlobalOr() {
						t.Errorf("node %d: OR with one true input reported false", nd.ID())
					}
					nd.SubmitMax(vals[nd.ID()])
				case 2:
					if nd.GlobalMax() != 11 {
						t.Errorf("node %d: max = %v, want 11", nd.ID(), nd.GlobalMax())
					}
					nd.SubmitOr(false)
				case 3:
					if nd.GlobalOr() {
						t.Errorf("node %d: OR of all-false reported true", nd.ID())
					}
					nd.SubmitMax(-float64(nd.ID() + 1))
				default:
					if nd.GlobalMax() != -1 {
						t.Errorf("node %d: max = %v, want -1", nd.ID(), nd.GlobalMax())
					}
					return false
				}
				return true
			},
		}
	})
	if st.Rounds != 4 || st.OracleCalls != 16 {
		t.Fatalf("stats %v, want rounds=4 oracleCalls=16", st)
	}
}

// TestFlatEarlyReturnAndFinalSends: a program may end at any round; sends
// from its final segment still arrive.
func TestFlatEarlyReturnAndFinalSends(t *testing.T) {
	g := path4(t)
	var got Incoming
	st := RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		step := 0
		return &stepProg{
			init: func(nd *Node) bool {
				if nd.ID() == 0 {
					nd.Send(0, Bit(true)) // farewell, then exit
					return false
				}
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				step++
				if step == 1 && nd.ID() == 1 {
					if len(in) != 1 {
						t.Errorf("node 1: want the farewell, got %v", in)
					} else {
						got = in[0]
					}
				}
				return step < 2
			},
		}
	})
	if b, ok := got.Msg.(Bit); !ok || !bool(b) {
		t.Fatalf("farewell not delivered: %+v", got)
	}
	if st.Rounds != 2 || st.Messages != 1 {
		t.Fatalf("stats = %v, want rounds=2 messages=1", st)
	}
}

// TestFlatPanicPropagation: a panic inside OnRound aborts the run and
// re-panics in the caller; lowest node id wins deterministically.
func TestFlatPanicPropagation(t *testing.T) {
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
					init: func(nd *Node) bool { return true },
					onRound: func(nd *Node, in []Incoming) bool {
						if nd.ID()%2 == 1 {
							panic(fmt.Sprintf("boom-%d", nd.ID()))
						}
						return true
					},
				}
			})
			t.Fatal("RunFlat returned despite panic")
		}()
	}
}

// TestFlatDesyncDetection: a round where some continuing nodes submit an
// oracle value and others don't must panic, exactly like mixed Step kinds.
func TestFlatDesyncDetection(t *testing.T) {
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
				}
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool { return false },
		}
	})
	t.Fatal("desync was not detected")
}

// TestFlatMaxRounds: the runaway guard stops a program that never ends.
func TestFlatMaxRounds(t *testing.T) {
	g := triangle(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxRounds") {
			t.Fatalf("expected MaxRounds panic, got %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1, MaxRounds: 10}, func(*Node) RoundProgram {
		return &stepProg{
			init:    func(nd *Node) bool { return true },
			onRound: func(nd *Node, in []Incoming) bool { return true },
		}
	})
	t.Fatal("runaway flat protocol was not stopped")
}

// TestFlatZeroAndTinyGraphs: the engine handles empty and edgeless graphs.
func TestFlatZeroAndTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	st := RunFlat(empty, Config{Seed: 1}, func(*Node) RoundProgram {
		t.Error("factory ran on empty graph")
		return nil
	})
	if st.Rounds != 0 {
		t.Fatalf("empty graph ran %d rounds", st.Rounds)
	}
	lone := graph.NewBuilder(1).MustBuild()
	ran := false
	st = RunFlat(lone, Config{Seed: 1}, func(*Node) RoundProgram {
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
		t.Fatalf("lone node run malformed: ran=%v %v", ran, st)
	}
}

// TestLogBudget pins the shared budget helper against the historical
// hand-rolled loop (8·⌈log₂ n⌉ + 8 for c = 8) and the fractional form.
func TestLogBudget(t *testing.T) {
	oldBudget := func(n int) int {
		b := 8
		for p := 1; p < n; p *= 2 {
			b += 8
		}
		return b
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 127, 128, 129, 1 << 20} {
		if got, want := LogBudget(n, 8), oldBudget(n); got != want {
			t.Fatalf("LogBudget(%d, 8) = %d, want %d", n, got, want)
		}
	}
	if LogBudget(1024, 4) != 4*10+4 {
		t.Fatalf("LogBudget(1024, 4) = %d, want 44", LogBudget(1024, 4))
	}
	if LogBudgetFrac(10, 4) != 44 || LogBudgetFrac(9.1, 4) != 44 {
		t.Fatal("LogBudgetFrac ceiling wrong")
	}
}
