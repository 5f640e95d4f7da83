package dist

import (
	"fmt"
	"reflect"
	"testing"

	"distmatch/internal/graph"
)

// runnerWorkload exercises sends, RNG and an oracle round, with per-node
// output into out.
func runnerWorkload(out []int64) func(*Node) RoundProgram {
	return func(*Node) RoundProgram {
		r, acc := 0, int64(0)
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SendAll(Count(nd.Rand().Intn(100)))
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				r++
				if r > 6 { // the oracle round just ended
					if nd.GlobalOr() {
						acc++
					}
					out[nd.ID()] = acc
					return false
				}
				for _, m := range in {
					acc += int64(m.Msg.(Count))
				}
				if r < 6 {
					nd.SendAll(Count(nd.Rand().Intn(100)))
				} else {
					nd.SubmitOr(nd.ID() == 0)
				}
				return true
			},
		}
	}
}

// boomAt beacons once, then panics with msg at node id on its first
// OnRound while everyone else beacons once more.
func boomAt(id int, msg string) func(*Node) RoundProgram {
	return func(*Node) RoundProgram {
		step := 0
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SendAll(Signal{})
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				step++
				if step > 1 {
					return false
				}
				if nd.ID() == id {
					panic(msg)
				}
				nd.SendAll(Signal{})
				return true
			},
		}
	}
}

func runnerStatsEqual(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Messages != got.Messages ||
		want.Bits != got.Bits || want.MaxMessageBits != got.MaxMessageBits ||
		want.OracleCalls != got.OracleCalls {
		t.Fatalf("%s: stats differ: fresh %v vs runner %v", label, want, got)
	}
	if !reflect.DeepEqual(want.Profile, got.Profile) {
		t.Fatalf("%s: profiles differ", label)
	}
	if want.PipelinedRounds(3) != got.PipelinedRounds(3) {
		t.Fatalf("%s: pipelined rounds differ", label)
	}
}

// TestRunnerMatchesRun proves Runner runs are bit-identical to fresh
// RunFlat calls, across seeds and worker counts.
func TestRunnerMatchesRun(t *testing.T) {
	g := ring(37)
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers, Profile: true}
		r := NewRunner(g, cfg)
		for seed := uint64(1); seed <= 5; seed++ {
			label := fmt.Sprintf("workers=%d seed=%d", workers, seed)
			fcfg := cfg
			fcfg.Seed = seed

			fresh := make([]int64, g.N())
			want := RunFlat(g, fcfg, runnerWorkload(fresh))
			pooled := make([]int64, g.N())
			got := r.RunFlat(seed, runnerWorkload(pooled))
			runnerStatsEqual(t, label+"/workload", want, got)
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("%s: outputs differ: %v vs %v", label, fresh, pooled)
			}

			wantF := RunFlat(g, fcfg, func(*Node) RoundProgram { return &countdownProgram{left: 5} })
			gotF := r.RunFlat(seed, func(*Node) RoundProgram { return &countdownProgram{left: 5} })
			runnerStatsEqual(t, label+"/countdown", wantF, gotF)
		}
		r.Close()
	}
}

// countdownProgram is a trivial RoundProgram beaconing for a fixed number
// of rounds.
type countdownProgram struct{ left int }

func (p *countdownProgram) Init(nd *Node) bool {
	nd.SendAll(Signal{})
	p.left--
	return p.left > 0
}

func (p *countdownProgram) OnRound(nd *Node, in []Incoming) bool {
	if p.left == 0 {
		return false
	}
	nd.SendAll(Signal{})
	p.left--
	return p.left > 0
}

// TestRunnerReuseAfterPanic proves a Runner survives a panicking run —
// including leftover undelivered mailbox state — and still produces
// bit-identical results afterwards.
func TestRunnerReuseAfterPanic(t *testing.T) {
	g := ring(16)
	r := NewRunner(g, Config{Workers: 3})
	defer r.Close()

	func() {
		defer func() {
			if rec := recover(); rec != "boom" {
				t.Fatalf("expected boom panic, got %v", rec)
			}
		}()
		r.RunFlat(1, boomAt(7, "boom"))
	}()

	out := make([]int64, g.N())
	want := RunFlat(g, Config{Seed: 2, Workers: 3}, runnerWorkload(out))
	got := r.RunFlat(2, runnerWorkload(make([]int64, g.N())))
	runnerStatsEqual(t, "after panic", want, got)

	// MaxRounds abort is a panic too; the Runner must survive it as well.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected MaxRounds panic")
			}
		}()
		rr := NewRunner(g, Config{MaxRounds: 2})
		defer rr.Close()
		rr.RunFlat(1, forever)
	}()
	got2 := r.RunFlat(2, runnerWorkload(make([]int64, g.N())))
	runnerStatsEqual(t, "after maxrounds", want, got2)
}

// panicOnRoundProgram beacons once, then panics on its first OnRound.
type panicOnRoundProgram struct{}

func (p *panicOnRoundProgram) Init(nd *Node) bool {
	nd.SendAll(Signal{})
	return true
}

func (p *panicOnRoundProgram) OnRound(nd *Node, in []Incoming) bool {
	panic("flat active boom")
}

// TestRunnerActiveSetReuseAfterPanic extends the panic-transport
// guarantee to active-set execution: a program panic mid-run with a
// restricted active set must leave the Runner reusable, with the next
// run over the same slab bit-identical to a fresh engine built with the
// same restriction.
func TestRunnerActiveSetReuseAfterPanic(t *testing.T) {
	g := ring(20)
	active := []int32{2, 3, 4, 5, 6, 7, 8}
	r := NewRunner(g, Config{Workers: 3})
	defer r.Close()
	r.SetActive(active)

	func() {
		defer func() {
			if rec := recover(); rec != "active boom" {
				t.Fatalf("expected active boom panic, got %v", rec)
			}
		}()
		r.RunFlat(1, boomAt(5, "active boom"))
	}()

	// Bit-identical to a fresh restricted engine.
	out := make([]int64, g.N())
	got := r.RunFlat(2, runnerWorkload(out))
	fresh := make([]int64, g.N())
	want := RunFlat(g, Config{Seed: 2, Workers: 3, ActiveSet: active}, runnerWorkload(fresh))
	runnerStatsEqual(t, "active after panic", want, got)
	if !reflect.DeepEqual(fresh, out) {
		t.Fatalf("outputs differ after active-set panic: %v vs %v", fresh, out)
	}

	// A machine that panics from its first OnRound this time.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected flat panic")
			}
		}()
		r.RunFlat(3, func(nd *Node) RoundProgram {
			if nd.ID() == 6 {
				return &panicOnRoundProgram{}
			}
			return &countdownProgram{left: 4}
		})
	}()
	gotF := r.RunFlat(4, func(*Node) RoundProgram { return &countdownProgram{left: 5} })
	wantF := RunFlat(g, Config{Seed: 4, Workers: 3, ActiveSet: active},
		func(*Node) RoundProgram { return &countdownProgram{left: 5} })
	runnerStatsEqual(t, "active flat after panic", wantF, gotF)

	// Widening back to a full sweep must also match a fresh full engine.
	r.ClearActive()
	out2 := make([]int64, g.N())
	got2 := r.RunFlat(5, runnerWorkload(out2))
	fresh2 := make([]int64, g.N())
	want2 := RunFlat(g, Config{Seed: 5, Workers: 3}, runnerWorkload(fresh2))
	runnerStatsEqual(t, "full after active panic", want2, got2)
	if !reflect.DeepEqual(fresh2, out2) {
		t.Fatal("full-sweep outputs differ after active-set panic run")
	}
}

// TestRunnerEdgeCases covers the empty graph and use-after-Close.
func TestRunnerEdgeCases(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	r := NewRunner(empty, Config{})
	if st := r.RunFlat(1, func(*Node) RoundProgram { return &countdownProgram{left: 1} }); st.Rounds != 0 {
		t.Fatalf("empty graph ran %d flat rounds", st.Rounds)
	}
	r.Close()
	r.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Run after Close")
		}
	}()
	r.RunFlat(1, forever)
}

// TestRunnerCloseRecyclesSlabs pins the cheap spawn-use-close cycle the
// shard supervisor's cold rebuild relies on: Close must hand the engine's
// slab bundle back to the process-wide pool (not leave it for the GC),
// and a run after Close must still panic.
func TestRunnerCloseRecyclesSlabs(t *testing.T) {
	r := NewRunner(ring(64), Config{})
	out := make([]int64, 64)
	r.RunFlat(7, runnerWorkload(out))
	if r.e.slabs == nil {
		t.Fatal("open Runner lost its slab bundle")
	}
	r.Close()
	if r.e.slabs != nil || r.e.nodes != nil || r.e.cur != nil {
		t.Fatal("Close did not recycle the slab bundle through putSlabs")
	}
	r.Close() // still idempotent with the recycling teardown
}
