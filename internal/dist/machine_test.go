package dist

import (
	"fmt"
	"testing"
)

// beaconMachine sends one signal per round for a fixed number of rounds.
// rounds == 0 completes at Start without reaching a barrier — the
// zero-iteration sub-machine case.
type beaconMachine struct {
	rounds int
	left   int
	runs   int // Reset count, to verify reuse
}

func (m *beaconMachine) reset(rounds int) { m.rounds = rounds; m.runs++ }

func (m *beaconMachine) Start(nd *Node) bool {
	m.left = m.rounds
	if m.left == 0 {
		return true
	}
	nd.SendAll(Signal{})
	return false
}

func (m *beaconMachine) OnRound(nd *Node, in []Incoming) bool {
	m.left--
	if m.left == 0 {
		return true
	}
	nd.SendAll(Signal{})
	return false
}

// beaconRounds builds the Stats of a run on n nodes whose rounds each
// carry msgs 1-bit beacons; msgs == 0 marks an oracle round every node
// submits to.
func beaconRounds(n int, msgs ...int64) *Stats {
	st := &Stats{Rounds: len(msgs)}
	for _, m := range msgs {
		p := RoundProfile{Messages: m, Bits: m, Oracle: m == 0}
		if m > 0 {
			p.MaxBits, st.MaxMessageBits = 1, 1
		} else {
			st.OracleCalls += int64(n)
		}
		st.Messages += m
		st.Bits += m
		st.Profile = append(st.Profile, p)
		st.roundMaxBits = append(st.roundMaxBits, int32(p.MaxBits))
	}
	return st
}

// TestSeqMatchesBlockingComposition nests machines two levels deep
// (a Seq of Seqs with interleaved zero-round machines and oracle probes)
// and asserts the hand-derived Stats of the equivalent straight-line
// program — 6 beacon rounds, the probe, 2 more beacon rounds: composition
// adds no rounds of its own — at several worker counts.
func TestSeqMatchesBlockingComposition(t *testing.T) {
	g := ring(24)
	pattern := []int{2, 0, 3, 0, 0, 1} // beacon lengths; 0 = zero-round machine
	arcs := int64(2 * g.M())
	want := beaconRounds(g.N(), arcs, arcs, arcs, arcs, arcs, arcs, 0, arcs, arcs)

	factory := func(nd *Node) RoundProgram {
		// Inner sequence: the beacon pattern.
		var beacons []Machine
		for _, rounds := range pattern {
			b := &beaconMachine{}
			b.reset(rounds)
			beacons = append(beacons, b)
		}
		inner := SeqOf(beacons...)
		// Outer sequence: inner, then a probe, then (conditionally) a
		// final beacon — the data-dependent branch.
		probe := &ProbeOr{}
		tail := &beaconMachine{}
		stage := 0
		outer := &Seq{}
		outer.Reset(func(nd *Node) Machine {
			switch stage {
			case 0:
				stage = 1
				return inner
			case 1:
				probe.Reset(nd.Deg() > 0)
				stage = 2
				return probe
			case 2:
				stage = 3
				if !probe.Result {
					return nil
				}
				tail.reset(2)
				return tail
			}
			return nil
		})
		return AsProgram(outer, nil)
	}
	for _, workers := range []int{1, 3, 7} {
		got := RunFlat(g, Config{Seed: 5, Profile: true, Workers: workers}, factory)
		runnerStatsEqual(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestSeqZeroRoundProgram is the degenerate whole-program case: every
// sub-machine finishes at Start, so the program ends in its first
// segment with zero rounds — sends made there are still counted.
func TestSeqZeroRoundProgram(t *testing.T) {
	g := ring(8)
	sendAtStart := &funcMachine{start: func(nd *Node) bool {
		nd.SendAll(Signal{})
		return true
	}}
	st := RunFlat(g, Config{Seed: 1}, func(nd *Node) RoundProgram {
		return AsProgram(SeqOf(&beaconMachine{}, sendAtStart, &beaconMachine{}), nil)
	})
	if st.Rounds != 0 {
		t.Fatalf("zero-round program ran %d rounds", st.Rounds)
	}
	if st.Messages != int64(2*g.M()) {
		t.Fatalf("final-segment sends not counted: %d", st.Messages)
	}
}

// funcMachine adapts bare closures into a Machine for tests.
type funcMachine struct {
	start   func(nd *Node) bool
	onRound func(nd *Node, in []Incoming) bool
}

func (m *funcMachine) Start(nd *Node) bool { return m.start(nd) }
func (m *funcMachine) OnRound(nd *Node, in []Incoming) bool {
	return m.onRound(nd, in)
}

// TestSeqPanicTransport proves a panic thrown deep inside a nested
// machine reaches the RunFlat caller with its value, under every worker
// count, from both Start and OnRound segments.
func TestSeqPanicTransport(t *testing.T) {
	g := ring(12)
	cases := map[string]func(nd *Node) Machine{
		"start": func(nd *Node) Machine {
			return &funcMachine{start: func(nd *Node) bool {
				if nd.ID() == 5 {
					panic("inner start boom")
				}
				return true
			}}
		},
		"onround": func(nd *Node) Machine {
			return &funcMachine{
				start: func(nd *Node) bool { nd.SendAll(Signal{}); return false },
				onRound: func(nd *Node, in []Incoming) bool {
					if nd.ID() == 5 {
						panic("inner onround boom")
					}
					return true
				},
			}
		},
	}
	for name, inner := range cases {
		for _, workers := range []int{1, 4} {
			func() {
				defer func() {
					r := recover()
					s, ok := r.(string)
					if !ok || s != "inner "+name+" boom" {
						t.Fatalf("%s/workers=%d: wrong panic %v", name, workers, r)
					}
				}()
				RunFlat(g, Config{Seed: 1, Workers: workers}, func(nd *Node) RoundProgram {
					b := &beaconMachine{}
					b.reset(2)
					return AsProgram(SeqOf(SeqOf(b, inner(nd))), nil)
				})
			}()
		}
	}
}

// reusableProgram is the reuse pattern the algorithm packages follow: a
// machine hierarchy held in one struct whose rearm re-Resets the Seq
// policy and sub-machines, wrapped once by AsProgram and recycled across
// runs. A Seq does not rewind at Start — re-arming is explicit.
type reusableProgram struct {
	seq  Seq
	b    beaconMachine
	prog RoundProgram
}

func (p *reusableProgram) rearm(rounds int) {
	p.b.reset(rounds)
	started := false
	p.seq.Reset(func(*Node) Machine {
		if started {
			return nil
		}
		started = true
		return &p.b
	})
	if p.prog == nil {
		p.prog = AsProgram(&p.seq, nil)
	}
}

// TestMachineResetReuseAcrossRuns reuses one machine slab across Runner
// runs at several worker counts and asserts the sweep stays bit-identical
// to fresh runs.
func TestMachineResetReuseAcrossRuns(t *testing.T) {
	g := ring(20)
	for _, workers := range []int{1, 5} {
		cfg := Config{Workers: workers, Profile: true}
		r := NewRunner(g, cfg)
		slab := make([]reusableProgram, g.N())
		for seed := uint64(1); seed <= 4; seed++ {
			fcfg := cfg
			fcfg.Seed = seed
			want := RunFlat(g, fcfg, func(nd *Node) RoundProgram {
				b := &beaconMachine{}
				b.reset(3)
				return AsProgram(SeqOf(b), nil)
			})
			got := r.RunFlat(seed, func(nd *Node) RoundProgram {
				p := &slab[nd.ID()]
				p.rearm(3)
				return p.prog
			})
			runnerStatsEqual(t, fmt.Sprintf("workers=%d seed=%d", workers, seed), want, got)
		}
		for i := range slab {
			if slab[i].b.runs != 4 {
				t.Fatalf("machine %d reused %d times, want 4", i, slab[i].b.runs)
			}
		}
		r.Close()
	}
}

// TestProbeMax: every node's ProbeMax ends with the global maximum after
// one oracle round.
func TestProbeMax(t *testing.T) {
	g := ring(9)
	got := make([]float64, g.N())
	st := RunFlat(g, Config{Seed: 3}, func(nd *Node) RoundProgram {
		p := &ProbeMax{}
		p.Reset(float64(nd.ID()) * 1.5)
		return AsProgram(p, func(nd *Node) { got[nd.ID()] = p.Result })
	})
	for v, mx := range got {
		if mx != float64(g.N()-1)*1.5 {
			t.Fatalf("node %d: ProbeMax = %v, want %v", v, mx, float64(g.N()-1)*1.5)
		}
	}
	if st.Rounds != 1 || st.OracleCalls != int64(g.N()) {
		t.Fatalf("stats %v, want rounds=1 oracleCalls=%d", st, g.N())
	}
}

// TestSeqOfSkipsProgsSlab: AsProgram wrapping a Seq that never parks must
// not confuse the progs bookkeeping when only some nodes finish early.
func TestSeqMixedCompletion(t *testing.T) {
	// Odd nodes finish in Init (zero-round Seq); even nodes beacon twice,
	// 5 nodes × 2 ports per round.
	g := ring(10)
	want := beaconRounds(g.N(), 10, 10)
	got := RunFlat(g, Config{Seed: 8, Profile: true}, func(nd *Node) RoundProgram {
		b := &beaconMachine{}
		if nd.ID()%2 == 0 {
			b.reset(2)
		} else {
			b.reset(0)
		}
		return AsProgram(SeqOf(b), nil)
	})
	runnerStatsEqual(t, "mixed completion", want, got)
}
