package dist

import (
	"reflect"
	"testing"
)

// gossip is the fault suite's reference workload: each node beacons a
// random count for a fixed number of rounds and accumulates everything it
// hears into out.
type gossip struct {
	left int
	acc  int64
	out  []int64
}

func (p *gossip) Init(nd *Node) bool {
	nd.SendAll(Count(nd.Rand().Intn(50)))
	p.left--
	return true
}

func (p *gossip) OnRound(nd *Node, in []Incoming) bool {
	for _, m := range in {
		p.acc += int64(m.Msg.(Count))
	}
	if p.left == 0 {
		p.out[nd.ID()] = p.acc
		return false
	}
	nd.SendAll(Count(nd.Rand().Intn(50)))
	p.left--
	return true
}

func gossipFactory(rounds int, out []int64) func(nd *Node) RoundProgram {
	return func(nd *Node) RoundProgram { return &gossip{left: rounds, out: out} }
}

func TestFaultPlanConstruction(t *testing.T) {
	p := NewFaultPlan([]FaultEvent{
		{Round: 5, Kind: FaultDrop, Edge: 1},
		{Round: 0, Kind: FaultCrash, Node: 2},
		{Round: 5, Kind: FaultPanic, Node: 3},
	})
	evs := p.Events()
	if len(evs) != 3 || evs[0].Round != 0 || evs[1].Kind != FaultDrop || evs[2].Kind != FaultPanic {
		t.Fatalf("events not stably sorted by round: %v", evs)
	}
	for _, bad := range [][]FaultEvent{
		{{Round: -1, Kind: FaultCrash}},
		{{Round: 0, Kind: FaultCrash, Node: -2}},
		{{Round: 0, Kind: FaultKind(9)}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFaultPlan(%v) did not panic", bad)
				}
			}()
			NewFaultPlan(bad)
		}()
	}
	// Out-of-range targets are rejected at install, not construction.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("installing an out-of-range crash did not panic")
			}
		}()
		r := NewRunner(ring(4), Config{})
		defer r.Close()
		r.SetFaultPlan(NewFaultPlan([]FaultEvent{{Round: 0, Kind: FaultCrash, Node: 99}}))
	}()
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	prof := FaultProfile{Rounds: 8, Crashes: 3, Drops: 4, Panics: 1}
	a := RandomFaultPlan(42, 20, 30, prof)
	b := RandomFaultPlan(42, 20, 30, prof)
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("same seed drew different plans:\n%v\n%v", a.Events(), b.Events())
	}
	c := RandomFaultPlan(43, 20, 30, prof)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds drew identical plans")
	}
	if a.Len() != 8 {
		t.Fatalf("plan has %d events, want 8", a.Len())
	}
	// No edges ⇒ drops are skipped, not mis-aimed.
	if d := RandomFaultPlan(7, 5, 0, prof); d.Len() != prof.Crashes+prof.Panics {
		t.Fatalf("edgeless plan has %d events, want %d", d.Len(), prof.Crashes+prof.Panics)
	}
}

// TestFaultCrashSilencesNode pins the crash contract on a 16-ring: the
// node crashed at boundary 2 executes rounds 0–1 in full (its round-1
// sends are still delivered), then goes silent; its cleared inbox and
// every later send addressed to it are charged and counted. Both delivery
// modes (one worker scatters, three stage) must agree.
func TestFaultCrashSilencesNode(t *testing.T) {
	const n, rounds = 16, 6
	g := ring(n)
	plan := NewFaultPlan([]FaultEvent{{Round: 2, Kind: FaultCrash, Node: 3}})

	var first *Stats
	var firstOut []int64
	for _, workers := range []int{1, 3} {
		out := make([]int64, n)
		st := RunFlat(g, Config{Seed: 9, Faults: plan, Workers: workers}, gossipFactory(rounds, out))
		if st.CrashedNodes != 1 {
			t.Fatalf("workers=%d: CrashedNodes = %d, want 1", workers, st.CrashedNodes)
		}
		// Inbox at boundary 2 (2 in-flight) + 2 neighbors × rounds 2..5.
		if st.SuppressedMessages != 2+2*4 {
			t.Fatalf("workers=%d: SuppressedMessages = %d, want 10", workers, st.SuppressedMessages)
		}
		// Every send is charged except the crashed node's rounds 2..5.
		if want := int64(n*2*rounds - 2*4); st.Messages != want {
			t.Fatalf("workers=%d: Messages = %d, want %d", workers, st.Messages, want)
		}
		if out[3] != 0 {
			t.Fatalf("workers=%d: crashed node wrote output %d", workers, out[3])
		}
		if first == nil {
			first, firstOut = st, out
		} else if !reflect.DeepEqual(first, st) || !reflect.DeepEqual(firstOut, out) {
			t.Fatalf("delivery modes diverge under a crash:\n%+v %v\n%+v %v", first, firstOut, st, out)
		}
	}

	// The crash reduced what the neighbors heard relative to a clean run,
	// and left everyone two hops away untouched.
	clean := make([]int64, n)
	RunFlat(g, Config{Seed: 9}, gossipFactory(rounds, clean))
	for _, v := range []int{2, 4} {
		if firstOut[v] >= clean[v] {
			t.Fatalf("neighbor %d heard %d with the crash, %d without", v, firstOut[v], clean[v])
		}
	}
	for _, v := range []int{0, 1, 5, 6} {
		if firstOut[v] != clean[v] {
			t.Fatalf("node %d (≥2 hops from the crash) diverged: %d vs %d", v, firstOut[v], clean[v])
		}
	}
}

// TestFaultCrashAtRoundZero: the node executes nothing at all — its Init
// never runs, so it sends nothing and draws nothing.
func TestFaultCrashAtRoundZero(t *testing.T) {
	const n, rounds = 8, 3
	g := ring(n)
	plan := NewFaultPlan([]FaultEvent{{Round: 0, Kind: FaultCrash, Node: 5}})
	out := make([]int64, n)
	st := RunFlat(g, Config{Seed: 4, Faults: plan}, gossipFactory(rounds, out))
	// Node 5 never sent: total messages = everyone's sends minus node 5's
	// rounds (its neighbors' sends to it are suppressed but charged).
	if want := int64((n - 1) * 2 * rounds); st.Messages != want {
		t.Fatalf("Messages = %d, want %d", st.Messages, want)
	}
	if st.SuppressedMessages != int64(2*rounds) {
		t.Fatalf("SuppressedMessages = %d, want %d", st.SuppressedMessages, 2*rounds)
	}
	if out[5] != 0 {
		t.Fatalf("crashed node produced output %d", out[5])
	}
}

// TestFaultDropIsOneShot: a drop clears the two in-flight messages of its
// edge at one boundary and nothing else.
func TestFaultDropIsOneShot(t *testing.T) {
	const n, rounds = 10, 4
	g := ring(n)
	// Edge 0 connects nodes 0 and 1 in the ring builder's order; whichever
	// it is, the drop accounting is what's pinned here.
	plan := NewFaultPlan([]FaultEvent{{Round: 2, Kind: FaultDrop, Edge: 0}})
	st := RunFlat(g, Config{Seed: 11, Faults: plan}, gossipFactory(rounds, make([]int64, n)))
	if st.SuppressedMessages != 2 {
		t.Fatalf("SuppressedMessages = %d, want 2 (one per direction)", st.SuppressedMessages)
	}
	// Drops lose delivered traffic, not charged traffic.
	if want := int64(n * 2 * rounds); st.Messages != want {
		t.Fatalf("Messages = %d, want %d", st.Messages, want)
	}
	if st.CrashedNodes != 0 {
		t.Fatalf("CrashedNodes = %d for a pure drop plan", st.CrashedNodes)
	}
}

// TestFaultInjectedPanic: a FaultPanic aborts the run with an
// *InjectedPanic, and the Runner stays reusable.
func TestFaultInjectedPanic(t *testing.T) {
	const n, rounds = 12, 6
	g := ring(n)
	plan := NewFaultPlan([]FaultEvent{{Round: 3, Kind: FaultPanic, Node: 7}})

	r := NewRunner(g, Config{})
	defer r.Close()
	r.SetFaultPlan(plan)
	func() {
		defer func() {
			ip, ok := recover().(*InjectedPanic)
			if !ok {
				t.Fatal("run did not panic with *InjectedPanic")
			}
			if *ip != (InjectedPanic{Node: 7, Round: 3}) {
				t.Fatalf("panic payload %+v", ip)
			}
		}()
		r.RunFlat(3, gossipFactory(rounds, make([]int64, n)))
	}()

	// Clearing the plan restores bit-identical fault-free behavior.
	r.SetFaultPlan(nil)
	out := make([]int64, n)
	got := r.RunFlat(5, gossipFactory(rounds, out))
	fresh := make([]int64, n)
	want := RunFlat(g, Config{Seed: 5}, gossipFactory(rounds, fresh))
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(fresh, out) {
		t.Fatalf("runner not bit-identical to fresh engine after injected panic:\nfresh %+v %v\ngot   %+v %v",
			want, fresh, got, out)
	}
}

// TestFaultRunnerReusable is the fault layer's hard guarantee: a run
// perturbed by crashes and drops completes, and after clearing the plan
// the next run over the same slab is bit-identical to a fresh engine,
// including under an active set.
func TestFaultRunnerReusable(t *testing.T) {
	const n, rounds = 14, 5
	g := ring(n)
	plan := NewFaultPlan([]FaultEvent{
		{Round: 0, Kind: FaultCrash, Node: 2},
		{Round: 1, Kind: FaultDrop, Edge: 5},
		{Round: 2, Kind: FaultCrash, Node: 9},
		{Round: 3, Kind: FaultDrop, Edge: 5},
		{Round: 9, Kind: FaultCrash, Node: 9}, // duplicate: skipped
	})
	r := NewRunner(g, Config{Workers: 3})
	defer r.Close()
	r.SetFaultPlan(plan)

	faulted1 := r.RunFlat(2, gossipFactory(rounds, make([]int64, n)))
	faulted2 := r.RunFlat(2, gossipFactory(rounds, make([]int64, n)))
	if !reflect.DeepEqual(faulted1, faulted2) {
		t.Fatalf("faulted runs of the same seed diverge:\n%+v\n%+v", faulted1, faulted2)
	}
	if faulted1.CrashedNodes != 2 || faulted1.SuppressedMessages == 0 {
		t.Fatalf("plan did not bite: %+v", faulted1)
	}

	r.SetFaultPlan(nil)
	for seed := uint64(1); seed <= 3; seed++ {
		out := make([]int64, n)
		got := r.RunFlat(seed, gossipFactory(rounds, out))
		fresh := make([]int64, n)
		want := RunFlat(g, Config{Seed: seed, Workers: 3}, gossipFactory(rounds, fresh))
		if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(fresh, out) {
			t.Fatalf("seed %d: post-fault runner diverges from fresh engine", seed)
		}
	}

	// Same guarantee under an active set: fault a restricted run, then
	// rerun restricted and compare against a fresh restricted engine.
	active := []int32{0, 1, 2, 3, 4, 5}
	r.SetActive(active)
	r.SetFaultPlan(NewFaultPlan([]FaultEvent{{Round: 1, Kind: FaultCrash, Node: 3}}))
	st := r.RunFlat(8, gossipFactory(rounds, make([]int64, n)))
	if st.CrashedNodes != 1 {
		t.Fatalf("active-set crash did not land: %+v", st)
	}
	r.SetFaultPlan(nil)
	out := make([]int64, n)
	got := r.RunFlat(8, gossipFactory(rounds, out))
	fresh := make([]int64, n)
	want := RunFlat(g, Config{Seed: 8, Workers: 3, ActiveSet: active}, gossipFactory(rounds, fresh))
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(fresh, out) {
		t.Fatal("post-fault active-set runner diverges from fresh engine")
	}
}

// TestFaultCrashOutsideActiveSet: events aimed at inactive or finished
// nodes are skipped deterministically.
func TestFaultCrashOutsideActiveSet(t *testing.T) {
	const n, rounds = 10, 3
	g := ring(n)
	plan := NewFaultPlan([]FaultEvent{
		{Round: 0, Kind: FaultCrash, Node: 9}, // inactive: skipped
		{Round: 1, Kind: FaultPanic, Node: 9}, // inactive: skipped
	})
	r := NewRunner(g, Config{})
	defer r.Close()
	r.SetActive([]int32{0, 1, 2, 3})
	r.SetFaultPlan(plan)
	st := r.RunFlat(6, gossipFactory(rounds, make([]int64, n)))
	if st.CrashedNodes != 0 || st.SuppressedMessages != 0 {
		t.Fatalf("faults aimed outside the active set landed: %+v", st)
	}
}

// TestFaultWholeRunCrash: crashing every participant ends the run at the
// boundary with no further sweeps.
func TestFaultWholeRunCrash(t *testing.T) {
	const n = 6
	g := ring(n)
	evs := make([]FaultEvent, n)
	for v := 0; v < n; v++ {
		evs[v] = FaultEvent{Round: 1, Kind: FaultCrash, Node: v}
	}
	st := RunFlat(g, Config{Seed: 1, Faults: NewFaultPlan(evs)}, gossipFactory(5, make([]int64, n)))
	if st.CrashedNodes != n {
		t.Fatalf("CrashedNodes = %d, want %d", st.CrashedNodes, n)
	}
	if st.Rounds != 1 {
		t.Fatalf("Rounds = %d after a whole-network crash at boundary 1, want 1", st.Rounds)
	}
}
