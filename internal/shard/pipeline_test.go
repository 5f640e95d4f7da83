package shard

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/golden"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

// mustPanicClosed asserts f panics with exactly ErrClosed.
func mustPanicClosed(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != ErrClosed {
			t.Fatalf("%s on closed pool: panic %v, want ErrClosed", label, r)
		}
	}()
	f()
	t.Fatalf("%s on closed pool: returned instead of panicking ErrClosed", label)
}

// TestPoolClosedBehavior pins the unified closed-pool contract: Close is
// idempotent, serving entry points panic ErrClosed, and the supervisor
// levers return it. Before PR 10, Apply panicked on a nil Maintainer only
// after taking the pool lock, Matching/Query raced the teardown, and
// KillShard returned a bespoke error string.
func TestPoolClosedBehavior(t *testing.T) {
	g := testSlab(11, 12, 12, 0.3)
	p := New(g, Options{Shards: 3, K: 2, Seed: 7})
	p.Apply(dynamic.Batch{{Edge: 0, Op: dynamic.Delete}})
	p.Close()
	p.Close() // idempotent

	panics := []struct {
		name string
		f    func()
	}{
		{"Apply", func() { p.Apply(nil) }},
		{"ApplySeq", func() { p.ApplySeq("c", 1, nil) }},
		{"Audit", func() { p.Audit() }},
		{"Matching", func() { p.Matching() }},
		{"Query", func() { p.Query() }},
	}
	for _, tc := range panics {
		mustPanicClosed(t, tc.name, tc.f)
	}

	errs := []struct {
		name string
		f    func() error
	}{
		{"KillShard", func() error { return p.KillShard(0) }},
		{"RestartShard", func() error { return p.RestartShard(0) }},
		{"InjectShardFaults", func() error { return p.InjectShardFaults(0, nil) }},
	}
	for _, tc := range errs {
		if err := tc.f(); err != ErrClosed {
			t.Fatalf("%s on closed pool: err %v, want ErrClosed", tc.name, err)
		}
	}
}

// TestPoolApplySeqIdempotent pins exactly-once semantics per client: a
// retried (client, seq) returns the cached Report with Duplicate set and
// does NOT re-apply the batch — the regression test for timed-out HTTP
// applies whose retry used to double-apply.
func TestPoolApplySeqIdempotent(t *testing.T) {
	g := testSlab(12, 14, 14, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 9, StartEmpty: true})
	defer p.Close()

	b := dynamic.Batch{
		{Edge: 0, Op: dynamic.Insert, Weight: 1},
		{Edge: 1, Op: dynamic.Insert, Weight: 1},
	}
	rep1 := p.ApplySeq("alice", 1, b)
	if rep1.Seq != 1 || rep1.Duplicate {
		t.Fatalf("first ApplySeq: Seq=%d Duplicate=%v, want 1/false", rep1.Seq, rep1.Duplicate)
	}
	applies := p.Totals().Applies
	size := p.Matching().Size()

	// Retry of the same sequence: cached Report, no new slot, no re-apply.
	rep2 := p.ApplySeq("alice", 1, b)
	if !rep2.Duplicate {
		t.Fatalf("retried ApplySeq not flagged Duplicate")
	}
	if rep2.Step != rep1.Step || rep2.Seq != rep1.Seq || rep2.Routed != rep1.Routed {
		t.Fatalf("retried ApplySeq Report differs: %+v vs %+v", rep2, rep1)
	}
	if got := p.Totals().Applies; got != applies {
		t.Fatalf("retry re-applied: Applies %d, want %d", got, applies)
	}
	if got := p.Matching().Size(); got != size {
		t.Fatalf("retry changed the served matching: size %d, want %d", got, size)
	}

	// A stale (lower) sequence is also absorbed, per the at-most-one-
	// outstanding-batch contract.
	if rep := p.ApplySeq("alice", 0, b); !rep.Duplicate {
		t.Fatalf("stale sequence not flagged Duplicate")
	}

	// A new sequence applies; an independent client has its own stream.
	rep3 := p.ApplySeq("alice", 2, dynamic.Batch{{Edge: 2, Op: dynamic.Insert, Weight: 1}})
	if rep3.Duplicate || rep3.Seq != 2 {
		t.Fatalf("next sequence: Seq=%d Duplicate=%v, want 2/false", rep3.Seq, rep3.Duplicate)
	}
	if rep := p.ApplySeq("bob", 1, nil); rep.Duplicate {
		t.Fatalf("fresh client's seq 1 flagged Duplicate")
	}
	if got, want := p.Totals().Applies, applies+2; got != want {
		t.Fatalf("Applies %d, want %d", got, want)
	}
	checkPool(t, p, "after idempotent retries")
}

// TestPoolReadersNonBlockingDuringApply pins the snapshot-isolation
// contract: while an Apply is parked mid-slot (between routing and the
// commit barrier), Matching and Query return promptly with the last
// composed snapshot — readers never wait on in-flight slots. Before
// PR 10 both blocked on the pool-wide mutex for the whole Apply,
// audit included.
func TestPoolReadersNonBlockingDuringApply(t *testing.T) {
	g := testSlab(13, 14, 14, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 5})
	defer p.Close()
	warm := p.Apply(dynamic.Batch{{Edge: 0, Op: dynamic.Delete}})
	want := p.Query()

	hold := make(chan struct{})
	entered := make(chan struct{})
	p.testHookCommit = func() {
		close(entered)
		<-hold
	}
	done := make(chan Report, 1)
	go func() { done <- p.Apply(dynamic.Batch{{Edge: 1, Op: dynamic.Delete}}) }()
	<-entered

	// The slot is in flight and will stay parked until we release it;
	// reads must complete anyway, serving the pre-slot snapshot.
	got := make(chan Response, 1)
	go func() { got <- p.Query() }()
	select {
	case q := <-got:
		if q.Step != want.Step || q.Step != warm.Step+1 {
			t.Errorf("mid-slot Query served step %d, want pre-slot step %d", q.Step, want.Step)
		}
		if err := q.Matching.Verify(g); err != nil {
			t.Errorf("mid-slot snapshot torn: %v", err)
		}
		if !reflect.DeepEqual(q.Matching.Edges(g), want.Matching.Edges(g)) {
			t.Errorf("mid-slot Query does not serve the last composed matching")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Query blocked behind an in-flight Apply")
	}
	gotM := make(chan int, 1)
	go func() { gotM <- p.Matching().Size() }()
	select {
	case <-gotM:
	case <-time.After(5 * time.Second):
		t.Fatalf("Matching blocked behind an in-flight Apply")
	}

	close(hold)
	p.testHookCommit = nil
	rep := <-done
	if rep.Step != warm.Step+1 {
		t.Fatalf("held Apply got slot %d, want %d", rep.Step, warm.Step+1)
	}
	if q := p.Query(); q.Step != rep.Step+1 {
		t.Fatalf("post-slot Query serves step %d, want %d", q.Step, rep.Step+1)
	}
	checkPool(t, p, "after held slot")
}

// runPipelineSchedule drives one seeded churn + kill/fault schedule and
// returns everything the determinism contract covers: per-slot Reports,
// the final matching's edges, and the structured event trace.
func runPipelineSchedule(t *testing.T, workers int) ([]Report, []int, []string) {
	t.Helper()
	reg := telemetry.New(telemetry.Options{EventCapacity: 1 << 14})
	g := testSlab(21, 16, 16, 0.3)
	p := New(g, Options{
		Shards: 4, K: 2, Seed: 21, StartEmpty: true, AuditEvery: 4,
		Workers: workers, Telemetry: reg,
	})
	defer p.Close()
	p.SetKillPlan(NewKillPlan([]KillEvent{
		{Step: 4, Shard: 1, Kind: Kill},
		{Step: 9, Shard: 3, Kind: Kill},
		{Step: 13, Shard: 1, Kind: Restart},
	}))
	r := rng.New(77)
	var reports []Report
	for step := 0; step < 40; step++ {
		if step == 6 {
			sub := p.SubGraph(2)
			plan := dist.RandomFaultPlan(99, sub.N(), sub.M(), dist.FaultProfile{
				Rounds: 6, Drops: 3, Panics: 1,
			})
			_ = p.InjectShardFaults(2, plan)
		}
		if step == 16 {
			_ = p.InjectShardFaults(2, nil)
		}
		reports = append(reports, p.Apply(randomPoolBatch(r, g.M(), 5)))
		checkPool(t, p, "schedule slot")
	}
	return reports, p.Matching().Edges(g), reg.Events().Strings()
}

// TestPoolScheduleDigest pins the pool's write path — concurrent shard
// commits, incremental recompose, dirty-crossing worklist — through kills
// and faults: Reports, the final matching and the event trace match the
// committed digest at every worker count. The digest was recorded while
// an inline-commit, full-rescan write path produced the same bits.
func TestPoolScheduleDigest(t *testing.T) {
	tab := golden.Open(t, "pool_schedule")
	for _, workers := range []int{0, 2} {
		reps, match, trace := runPipelineSchedule(t, workers)
		tab.Check(t, "schedule", golden.New().Add(reps, match, trace))
	}
}

// TestPoolConcurrentApplyHammer points the race detector at the full
// surface: concurrent Apply/ApplySeq writers, supervisor kills and
// restarts, fault arming, and a crowd of lock-free snapshot readers. The
// writers contend on the slot lock (their interleaving is arbitrary);
// the checks here are memory safety under -race and that every observed
// snapshot is a valid matching on the live subgraph.
func TestPoolConcurrentApplyHammer(t *testing.T) {
	g := testSlab(31, 16, 16, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 31, AuditEvery: 4})
	defer p.Close()

	const (
		writers = 3
		readers = 4
		slots   = 30
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + w))
			client := string(rune('a' + w))
			for i := 0; i < slots; i++ {
				if i%3 == 0 {
					p.ApplySeq(client, uint64(i/3+1), randomPoolBatch(r, g.M(), 4))
				} else {
					p.Apply(randomPoolBatch(r, g.M(), 4))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			s := i % p.Shards()
			_ = p.KillShard(s)
			_ = p.RestartShard(s)
			_ = p.InjectShardFaults((s+1)%p.Shards(), nil)
			p.Audit()
		}
	}()
	var readerWG sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := p.Query()
				if err := q.Matching.Verify(g); err != nil {
					t.Errorf("hammer reader saw torn snapshot: %v", err)
					return
				}
				if q.Degraded != (len(q.Down) > 0 || len(q.Stale) > 0) {
					t.Errorf("hammer reader saw inconsistent flags: %+v", q)
					return
				}
				p.Matching()
				p.Totals()
				p.Status()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	// Drain to quiescence and verify the pool still serves a coherent
	// composed matching.
	for i := 0; i < 40; i++ {
		rep := p.Apply(nil)
		if !rep.Degraded && rep.CertificateOK {
			break
		}
	}
	checkPool(t, p, "after hammer")
}
