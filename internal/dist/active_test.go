package dist

// The active-set conformance suite of PR 5 — the harness that makes
// sub-round execution safe to rely on:
//
//   - TestActiveConformance: a run restricted to an active set is
//     bit-identical (outputs, rounds, messages, bits, peak width,
//     per-round profile) to a full-sweep run of the same protocol whose
//     excluded nodes are silent observers — across topologies × worker
//     counts × one-shot and Runner paths × the sparse
//     and dense sweep forms; and the honest accounting (NodeRounds,
//     OracleCalls counting active nodes only) is pinned exactly.
//   - TestActiveInactiveNodesUntouched: the engine invariant "inactive
//     nodes execute nothing, send/receive nothing, and their RNG streams
//     do not advance" — the property that catches silent sweep leaks.
//   - TestActiveRunnerMailboxShrinkGrow: mailbox state across SetActive
//     shrink/grow cycles, including undelivered final-segment traffic and
//     aborted runs — the double-buffer-reuse regression test.
//   - TestActiveExpandAlternating & friends: the frontier-growth API
//     against a brute-force walk enumeration, live-edge masks included.

import (
	"reflect"
	"testing"

	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// tval is the test payload: a 64-bit value.
type tval uint64

func (tval) Bits() int { return 64 }

// regionalRounds is the barrier count of the conformance protocol.
const regionalRounds = 7

// regionalFlat is the conformance protocol. A participant draws one
// random value per round, sends a per-port mix of it to participating
// neighbors, folds everything it receives into an accumulator, and every
// third barrier is an oracle round. A non-participant is a silent
// observer: it steps through the identical barrier structure but never
// sends, never draws, and submits the oracle identity — the exact shape of
// core's participate=false phases, and the shape active-set execution is
// allowed to skip.
type regionalFlat struct {
	part []bool
	out  []uint64
	r    int
	acc  uint64
	x    uint64
}

func (m *regionalFlat) segment(nd *Node) {
	m.x = nd.Rand().Uint64()
	for p := 0; p < nd.Deg(); p++ {
		if m.part[nd.NbrID(p)] {
			nd.Send(p, tval(m.x^uint64(p)))
		}
	}
	if m.r%3 == 2 {
		nd.SubmitOr(m.x%3 == 0)
	}
}

func (m *regionalFlat) Init(nd *Node) bool {
	m.r, m.acc = 0, 0
	if !m.part[nd.ID()] {
		return true
	}
	m.acc = uint64(nd.ID())
	m.segment(nd)
	return true
}

func (m *regionalFlat) OnRound(nd *Node, in []Incoming) bool {
	if !m.part[nd.ID()] {
		m.r++
		if m.r >= regionalRounds {
			return false
		}
		if m.r%3 == 2 {
			nd.SubmitOr(false)
		}
		return true
	}
	if m.r%3 == 2 && nd.GlobalOr() {
		m.acc += 13
	}
	for _, d := range in {
		m.acc += uint64(d.Msg.(tval))
	}
	m.r++
	if m.r >= regionalRounds {
		m.out[nd.ID()] = m.acc
		return false
	}
	m.segment(nd)
	return true
}

// maskOf materializes an id list as (mask, sorted-insertion list) over n
// nodes.
func maskOf(n int, ids []int32) []bool {
	mask := make([]bool, n)
	for _, v := range ids {
		mask[v] = true
	}
	return mask
}

// activeStatsEqual asserts the bit-identity contract between a full-sweep
// run over silent observers and the active-set run of the same protocol:
// everything equal except the honest work accounting, which must count
// exactly the active nodes.
func activeStatsEqual(t *testing.T, label string, full, act *Stats, activeCount int) {
	t.Helper()
	if full.Rounds != act.Rounds || full.Messages != act.Messages ||
		full.Bits != act.Bits || full.MaxMessageBits != act.MaxMessageBits {
		t.Fatalf("%s: stats differ: full %v vs active %v", label, full, act)
	}
	if !reflect.DeepEqual(full.Profile, act.Profile) {
		t.Fatalf("%s: per-round profiles differ:\nfull %+v\nact  %+v", label, full.Profile, act.Profile)
	}
	if full.PipelinedRounds(16) != act.PipelinedRounds(16) {
		t.Fatalf("%s: pipelined round estimates differ", label)
	}
	// Honest accounting: the active run stepped activeCount nodes per
	// round (regionalRounds barriers plus the final return segment) and
	// only they used the oracle (barriers with r%3 == 2).
	oracleRounds := 0
	for r := 0; r < regionalRounds; r++ {
		if r%3 == 2 {
			oracleRounds++
		}
	}
	if want := int64(activeCount) * int64(regionalRounds+1); act.NodeRounds != want {
		t.Fatalf("%s: active NodeRounds = %d, want %d", label, act.NodeRounds, want)
	}
	if want := int64(activeCount) * int64(oracleRounds); act.OracleCalls != want {
		t.Fatalf("%s: active OracleCalls = %d, want %d", label, act.OracleCalls, want)
	}
}

// TestActiveConformance is the active-set conformance suite: every
// (topology × active set × worker count) cell compares the full-sweep
// observer run against one-shot Config.ActiveSet and Runner.SetActive
// executions.
func TestActiveConformance(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":  gen.Gnp(rng.New(41), 24, 0.18),
		"path": gen.Path(17),
		"star": gen.Star(12),
		"ring": ring(16),
	}
	for name, g := range tops {
		n := g.N()
		sets := map[string][]int32{
			"sparse": {1, 2, 3},                                     // list sweep
			"dense":  make([]int32, 0, n),                           // mask sweep
			"one":    {int32(n - 1)},                                // singleton, reporter ≠ 0
			"spread": {0, int32(n / 2), int32(n - 2), int32(n - 1)}, // crosses chunks
		}
		for v := 0; v < n; v += 2 {
			sets["dense"] = append(sets["dense"], int32(v))
		}
		for sname, ids := range sets {
			part := maskOf(n, ids)
			for _, workers := range []int{1, 2, 3} {
				label := name + "/" + sname
				fullOut := make([]uint64, n)
				fullSt := RunFlat(g, Config{Seed: 5, Workers: workers, Profile: true},
					func(*Node) RoundProgram { return &regionalFlat{part: part, out: fullOut} })
				activeStatsEqual(t, label+"/full", fullSt, fullSt, n) // full sweep: NodeRounds over all n

				// One-shot Config.ActiveSet.
				actOut := make([]uint64, n)
				actSt := RunFlat(g, Config{Seed: 5, Workers: workers, Profile: true, ActiveSet: ids},
					func(*Node) RoundProgram { return &regionalFlat{part: part, out: actOut} })
				activeStatsEqual(t, label+"/active", fullSt, actSt, len(ids))
				if !reflect.DeepEqual(fullOut, actOut) {
					t.Fatalf("%s workers=%d: outputs differ\nfull %v\nact  %v", label, workers, fullOut, actOut)
				}

				// Runner path: SetActive, then ClearActive back to full —
				// both directions of the restriction on one warm engine.
				rn := NewRunner(g, Config{Workers: workers, Profile: true})
				rn.SetActive(ids)
				runnerOut := make([]uint64, n)
				rSt := rn.RunFlat(5, func(*Node) RoundProgram { return &regionalFlat{part: part, out: runnerOut} })
				activeStatsEqual(t, label+"/runner", fullSt, rSt, len(ids))
				if !reflect.DeepEqual(fullOut, runnerOut) {
					t.Fatalf("%s/runner: outputs differ", label)
				}
				rn.ClearActive()
				clearOut := make([]uint64, n)
				cSt := rn.RunFlat(5, func(*Node) RoundProgram { return &regionalFlat{part: part, out: clearOut} })
				activeStatsEqual(t, label+"/runner-clear", fullSt, cSt, n)
				if !reflect.DeepEqual(fullOut, clearOut) {
					t.Fatalf("%s/runner-clear: outputs differ", label)
				}
				rn.Close()
			}
		}
	}
}

// TestActiveInactiveNodesUntouched is the engine-invariant property test:
// across both sweep forms, an inactive node executes no
// program segment, sends and receives nothing, and its RNG stream does
// not advance. Any silent full sweep — a sweep stepping everyone, a reset
// touching every stream — fails here.
func TestActiveInactiveNodesUntouched(t *testing.T) {
	g := gen.Gnp(rng.New(9), 20, 0.25)
	n := g.N()
	for _, tc := range []struct {
		name string
		ids  []int32
	}{
		{"sparse", []int32{2, 5, 7}},
		{"dense", []int32{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
	} {
		part := maskOf(n, tc.ids)
		rn := NewRunner(g, Config{Workers: 2})
		rn.SetActive(tc.ids)

		// Snapshot every RNG stream before the run (white-box: the
		// engine's per-node streams).
		before := make([]rng.Rand, n)
		copy(before, rn.e.rnds)

		started := make([]bool, n)
		received := make([][]int, n)
		rn.RunFlat(3, func(nd *Node) RoundProgram {
			started[nd.ID()] = true
			return &regionalFlat{part: part, out: make([]uint64, n)}
		})
		// Also record who delivered to whom via a second, logging run.
		rn.RunFlat(4, func(nd *Node) RoundProgram {
			return asLogger(part, received)
		})

		for v := 0; v < n; v++ {
			if part[v] {
				if !started[v] {
					t.Fatalf("%s: active node %d never started", tc.name, v)
				}
				for _, from := range received[v] {
					if !part[from] {
						t.Fatalf("%s: active node %d received from inactive %d", tc.name, v, from)
					}
				}
				continue
			}
			if started[v] {
				t.Fatalf("%s: inactive node %d was started", tc.name, v)
			}
			if len(received[v]) != 0 {
				t.Fatalf("%s: inactive node %d collected %d messages", tc.name, v, len(received[v]))
			}
			if rn.e.rnds[v] != before[v] {
				t.Fatalf("%s: inactive node %d's RNG stream advanced", tc.name, v)
			}
		}
		rn.Close()
	}
}

// loggerProg records the sender of every delivered message for two
// rounds: round 0 everyone sends its id everywhere, round 1 collects.
type loggerProg struct {
	part     []bool
	received [][]int
	r        int
}

func asLogger(part []bool, received [][]int) RoundProgram {
	return &loggerProg{part: part, received: received}
}

func (m *loggerProg) Init(nd *Node) bool {
	m.received[nd.ID()] = m.received[nd.ID()][:0]
	nd.SendAll(tval(nd.ID()))
	return true
}

func (m *loggerProg) OnRound(nd *Node, in []Incoming) bool {
	for _, d := range in {
		m.received[nd.ID()] = append(m.received[nd.ID()], int(uint64(d.Msg.(tval))))
	}
	return false
}

// poisonProg leaves undelivered traffic behind: it sends a marker in its
// final segment (never collected by anyone) and returns without a
// barrier.
type poisonProg struct{}

func (poisonProg) Init(nd *Node) bool {
	nd.SendAll(tval(0xDEAD))
	return false
}

func (poisonProg) OnRound(*Node, []Incoming) bool { return false }

// TestActiveRunnerMailboxShrinkGrow pins dist.Runner's mailbox state
// across changing active sets — the double-buffer-reuse path. Poison
// traffic parked in inactive nodes' slots by one run (final-segment
// sends, aborted runs) must never surface when a later run re-activates
// those nodes, across shrink → grow → full → shrink cycles spanning both
// sweep forms.
func TestActiveRunnerMailboxShrinkGrow(t *testing.T) {
	g := gen.Path(8) // 0-1-2-...-7
	n := g.N()
	rn := NewRunner(g, Config{})
	defer rn.Close()
	received := make([][]int, n)

	checkClean := func(step string, ids []int32) {
		t.Helper()
		rn.SetActive(ids)
		part := maskOf(n, ids)
		rn.RunFlat(7, func(nd *Node) RoundProgram { return asLogger(part, received) })
		for _, v := range ids {
			for _, from := range received[v] {
				if from == 0xDEAD {
					t.Fatalf("%s: node %d collected poison from a previous run", step, v)
				}
				if !part[from] {
					t.Fatalf("%s: node %d heard inactive node %d", step, v, from)
				}
			}
		}
	}

	// 1. A tiny run leaves poison in the neighbors' (inactive) slots.
	rn.SetActive([]int32{3})
	rn.RunFlat(1, func(*Node) RoundProgram { return poisonProg{} })
	// 2. Grow across the poisoned slots (sparse form).
	checkClean("grow-sparse", []int32{2, 3, 4})
	// 3. Poison again, then grow past the density cutover (mask form).
	rn.SetActive([]int32{1})
	rn.RunFlat(2, func(*Node) RoundProgram { return poisonProg{} })
	checkClean("grow-dense", []int32{0, 1, 2, 3, 4, 5})
	// 4. Full sweep dirties everything; shrinking back must clear it.
	// (The abort path of the cycle is TestActiveAbortedRunLeavesRunnerClean.)
	rn.ClearActive()
	rn.RunFlat(3, func(*Node) RoundProgram { return poisonProg{} })
	checkClean("full-then-shrink", []int32{6, 7})
	// 5. And back to a full sweep: the regional runs must not have
	// corrupted anyone.
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	checkCleanFull := func() {
		t.Helper()
		rn.ClearActive()
		partAll := maskOf(n, all)
		rn.RunFlat(9, func(nd *Node) RoundProgram { return asLogger(partAll, received) })
		for v := 0; v < n; v++ {
			for _, from := range received[v] {
				if from == 0xDEAD {
					t.Fatalf("full: node %d collected poison", v)
				}
			}
			want := 0
			if v > 0 {
				want++
			}
			if v < n-1 {
				want++
			}
			if len(received[v]) != want {
				t.Fatalf("full: node %d got %d messages, want %d", v, len(received[v]), want)
			}
		}
	}
	checkCleanFull()
}

// TestActiveAbortedRunLeavesRunnerClean covers the abort path of the
// shrink/grow cycle: a MaxRounds panic strands messages in both buffers;
// the next run — over a different active set that includes previously
// inactive nodes — must not see them, and the Runner stays reusable.
func TestActiveAbortedRunLeavesRunnerClean(t *testing.T) {
	g := gen.Path(8)
	n := g.N()
	rn := NewRunner(g, Config{MaxRounds: 2})
	defer rn.Close()

	rn.SetActive([]int32{2, 3, 4})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected MaxRounds panic")
			}
		}()
		rn.RunFlat(1, func(*Node) RoundProgram { return &endlessPoison{} })
	}()

	received := make([][]int, n)
	ids := []int32{1, 2, 3, 4, 5}
	part := maskOf(n, ids)
	rn.SetActive(ids)
	rn.RunFlat(2, func(nd *Node) RoundProgram { return asLogger(part, received) })
	for _, v := range ids {
		for _, from := range received[v] {
			if from == 0xDEAD || !part[from] {
				t.Fatalf("node %d heard stale/inactive sender %d after abort", v, from)
			}
		}
	}
}

// endlessPoison floods poison every round forever (MaxRounds kills it).
type endlessPoison struct{}

func (endlessPoison) Init(nd *Node) bool { nd.SendAll(tval(0xDEAD)); return true }
func (endlessPoison) OnRound(nd *Node, in []Incoming) bool {
	nd.SendAll(tval(0xDEAD))
	return true
}

// TestActiveExpandAlternating checks the alternating frontier growth
// against a brute-force enumeration of every alternating walk, on random
// bipartite slabs × random matchings × dead edges (matched ones included)
// × h ∈ {0,…,5}, from seed sets of one to three nodes.
func TestActiveExpandAlternating(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rng.New(uint64(500 + trial))
		g := gen.BipartiteGnp(r, 5+r.Intn(8), 5+r.Intn(8), 0.15+0.3*r.Float64())
		n := g.N()
		rn := NewRunner(g, Config{})
		matched := make([]int32, n)
		for v := range matched {
			matched[v] = -1
		}
		for _, e := range r.Perm(g.M()) {
			if x, y := g.Endpoints(e); matched[x] < 0 && matched[y] < 0 && r.Intn(10) < 7 {
				matched[x], matched[y] = int32(e), int32(e)
			}
		}
		for e := 0; e < g.M(); e++ {
			if r.Intn(5) == 0 {
				rn.SetEdgeLive(e, false)
			}
		}
		for h := 0; h <= 5; h++ {
			seeds := make([]int32, 1+r.Intn(3))
			for i := range seeds {
				seeds[i] = int32(r.Intn(n))
			}
			rn.SetActive(seeds)
			got := rn.ExpandAlternating(h, matched)
			want := bruteAlternating(g, rn.EdgeLive, matched, seeds, h)
			count := 0
			for v := 0; v < n; v++ {
				if want[v] {
					count++
				}
				if rn.NodeActive(v) != want[v] {
					t.Fatalf("trial %d h=%d seeds %v: node %d active %v, reference %v",
						trial, h, seeds, v, rn.NodeActive(v), want[v])
				}
			}
			if got != count || len(rn.ActiveNodes()) != count {
				t.Fatalf("trial %d h=%d: returned %d, %d listed, reference %d", trial, h, got, len(rn.ActiveNodes()), count)
			}
		}
		rn.Close()
	}
}

// bruteAlternating marks every node on some alternating walk of at most
// h live edges from a seed, by depth-first enumeration of the walks
// themselves: the first edge is either kind, and a walk may revisit
// nodes.
func bruteAlternating(g *graph.Graph, live func(int) bool, matched []int32, seeds []int32, h int) []bool {
	out := make([]bool, g.N())
	var walk func(v, left int, wantMatched bool)
	walk = func(v, left int, wantMatched bool) {
		out[v] = true
		if left == 0 {
			return
		}
		for p := 0; p < g.Deg(v); p++ {
			e := g.EdgeAt(v, p)
			if live(e) && (int32(e) == matched[v]) == wantMatched {
				walk(g.NbrAt(v, p), left-1, !wantMatched)
			}
		}
	}
	for _, s := range seeds {
		walk(int(s), h, false)
		walk(int(s), h, true)
	}
	return out
}

// TestActiveExpandAlternatingPath pins the growth on a hand-checked
// path, plus incremental activation and the all-active no-op.
func TestActiveExpandAlternatingPath(t *testing.T) {
	g := gen.Path(10) // 0-1-...-9, edge i joins i and i+1
	rn := NewRunner(g, Config{})
	defer rn.Close()
	matched := make([]int32, 10)
	for v := range matched {
		matched[v] = -1
	}
	for _, e := range []int{1, 3, 5} { // matched: 1-2, 3-4, 5-6
		x, y := g.Endpoints(e)
		matched[x], matched[y] = int32(e), int32(e)
	}
	// From 0 the only walk is 0-1 (unmatched), 1=2 (matched), 2-3, 3=4.
	rn.SetActive([]int32{0})
	if got := rn.ExpandAlternating(4, matched); got != 5 {
		t.Fatalf("ExpandAlternating(4) from {0} = %d nodes, want 5", got)
	}
	// From 8, walks leave by 8-7 or 8-9 (both unmatched) and stop: 7's
	// and 9's next edge would have to be matched, and neither is.
	rn.SetActive([]int32{8})
	if got := rn.ExpandAlternating(5, matched); got != 3 {
		t.Fatalf("ExpandAlternating(5) from {8} = %d nodes, want 3", got)
	}
	// Incremental activation adds a seed, and growth restarts from every
	// member: 3 reaches 2=1 and 4-5, and 7 now takes 7-6=5.
	rn.ActivateNode(3)
	if got := rn.ExpandAlternating(2, matched); got != 9 {
		t.Fatalf("after ActivateNode(3)+ExpandAlternating(2): %d nodes, want 9", got)
	}
	for v, want := range []bool{false, true, true, true, true, true, true, true, true, true} {
		if rn.NodeActive(v) != want {
			t.Fatalf("node %d active = %v, want %v", v, rn.NodeActive(v), want)
		}
	}
	// Without an active set every node is active and growth is a no-op.
	rn.ClearActive()
	if got := rn.ExpandAlternating(2, matched); got != 10 {
		t.Fatalf("ExpandAlternating with all active = %d, want n", got)
	}
	if rn.ActivateNode(3) {
		t.Fatal("ActivateNode reported an addition with every node active")
	}
	if rn.ActiveNodes() != nil || rn.ActiveMask() != nil {
		t.Fatal("all-active views should be nil")
	}
}

// TestActiveEmptyAndReporter: an empty active set runs no nodes and
// costs nothing; Reporter designates the lowest active id on every
// sweep form.
func TestActiveEmptyAndReporter(t *testing.T) {
	g := ring(12)
	st := RunFlat(g, Config{ActiveSet: []int32{}}, func(*Node) RoundProgram {
		t.Fatal("factory called with an empty active set")
		return nil
	})
	if st.Rounds != 0 || st.Messages != 0 || st.NodeRounds != 0 {
		t.Fatalf("empty active set ran work: %v", st)
	}

	rn := NewRunner(g, Config{})
	defer rn.Close()
	report := func(got *[]int) func(*Node) RoundProgram {
		return once(func(nd *Node) {
			if nd.Reporter() {
				*got = append(*got, nd.ID())
			}
		})
	}
	for _, ids := range [][]int32{{7, 3, 9}, {4, 0, 2, 6, 8, 10}} {
		rn.SetActive(ids)
		min := ids[0]
		for _, v := range ids {
			if v < min {
				min = v
			}
		}
		var got []int
		rn.RunFlat(1, report(&got))
		if len(got) != 1 || int32(got[0]) != min {
			t.Fatalf("reporter for %v = %v, want [%d]", ids, got, min)
		}
	}
	rn.ClearActive()
	var got []int
	rn.RunFlat(1, report(&got))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("full-sweep reporter = %v, want [0]", got)
	}
}

// TestActivePanicTransport: a panic inside an active node's program
// aborts the run, re-panics in the caller, and leaves the Runner
// reusable with a different active set — from Init and from OnRound.
func TestActivePanicTransport(t *testing.T) {
	g := ring(10)
	rn := NewRunner(g, Config{})
	defer rn.Close()
	rn.SetActive([]int32{4, 5, 6})

	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected the node panic to propagate")
			}
		}()
		f()
	}
	mustPanic(func() {
		rn.RunFlat(1, func(*Node) RoundProgram { return panicOnInit{} })
	})
	mustPanic(func() { rn.RunFlat(1, boomAt(5, "boom")) })
	// The Runner is still healthy under a new active set.
	rn.SetActive([]int32{0, 1})
	st := rn.RunFlat(2, func(*Node) RoundProgram { return poisonProg{} })
	if st.Messages != 4 {
		t.Fatalf("post-panic run sent %d messages, want 4", st.Messages)
	}
}

type panicOnInit struct{}

func (panicOnInit) Init(nd *Node) bool {
	if nd.ID() == 5 {
		panic("boom")
	}
	return false
}
func (panicOnInit) OnRound(*Node, []Incoming) bool { return false }
