package shard

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

// telPool builds an instrumented pool over the standard test slab.
func telPool(t *testing.T, opts Options) (*Pool, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New(telemetry.Options{EventCapacity: 4096})
	opts.Telemetry = reg
	return New(testSlab(3, 16, 16, 0.3), opts), reg
}

// TestPoolTelemetryEvents drives a kill/restart cycle and then a
// regional audit, and checks the trace records, gauges and histograms
// line up with the supervisor and audit state.
func TestPoolTelemetryEvents(t *testing.T) {
	p, reg := telPool(t, Options{Shards: 4, Seed: 5, RestartBackoff: 2})
	defer p.Close()

	r := rng.New(11)
	p.Apply(randomPoolBatch(r, p.g.M(), 8))
	if err := p.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge(`shard_up{shard="1"}`, "").Value(); v != 0 {
		t.Fatalf("shard 1 up gauge %d after kill, want 0", v)
	}
	for i := 0; i < 3; i++ { // backoff 2: down at steps 1,2, restart at 3
		p.Apply(randomPoolBatch(r, p.g.M(), 8))
	}
	if v := reg.Gauge(`shard_up{shard="1"}`, "").Value(); v != 1 {
		t.Fatalf("shard 1 up gauge %d after restart, want 1", v)
	}
	if v := reg.Gauge(`shard_restarts{shard="1"}`, "").Value(); v != 1 {
		t.Fatalf("shard 1 restarts gauge %d, want 1", v)
	}
	crossing := 0
	for v := range p.gmatch {
		if crossingMatched(p, int32(v)) {
			crossing++
		}
	}
	if v := reg.Gauge("pool_pinned_nodes", "").Value(); v != int64(crossing) || crossing == 0 {
		t.Fatalf("pool_pinned_nodes gauge %d, want the %d crossing-matched nodes", v, crossing)
	}
	// The restart slot's forced audit builds the certified base with a
	// full repair; the next periodic audit repairs regionally.
	regions := reg.Histogram("pool_audit_region_nodes", "")
	for i := 0; i < 8 && regions.Count() == 0; i++ {
		p.Apply(randomPoolBatch(r, p.g.M(), 8))
	}
	var regionEvents, regionNodes int64
	for _, e := range reg.Events().Tail(0) {
		if e.Kind == telemetry.EventRepairRegion {
			regionEvents++
			regionNodes += e.A
			if e.Shard != -1 || e.A <= 0 || e.B < 0 || e.B > e.A {
				t.Fatalf("malformed regional repair record %v", e)
			}
		}
	}
	if regionEvents == 0 || regions.Count() != regionEvents || regions.Sum() != regionNodes {
		t.Fatalf("pool_audit_region_nodes count %d sum %d; trace has %d repair_region records over %d nodes",
			regions.Count(), regions.Sum(), regionEvents, regionNodes)
	}
	trace := strings.Join(reg.Events().Strings(), "\n")
	for _, want := range []string{
		"shard=1 shard_kill a=2",    // killed with backoff 2 charged
		"shard=1 shard_backoff a=4", // backoff doubled
		"shard=1 shard_restart a=1", // first rebuild
		"shard=1 health a=0 b=2",    // Healthy → Recovering after restore
		"shard=-1 repair_region",    // the regional audit repair
	} {
		if !strings.Contains(trace, want) {
			t.Fatalf("trace missing %q:\n%s", want, trace)
		}
	}
	if reg.Counter("pool_updates_routed_total", "").Value() != p.Totals().Routed {
		t.Fatal("routed counter diverges from totals")
	}
	if reg.Histogram("pool_apply_ns", "").Count() != int64(p.Totals().Applies) {
		t.Fatal("apply histogram count diverges from totals")
	}
	// The exposition of a live pool validates.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n, err := telemetry.ValidateExposition(strings.NewReader(sb.String())); err != nil || n == 0 {
		t.Fatalf("exposition invalid: (%d, %v)", n, err)
	}
}

// TestPoolTelemetryDeterministic replays one seeded churn + kill-plan
// schedule twice and requires bit-identical event traces.
func TestPoolTelemetryDeterministic(t *testing.T) {
	run := func(workers int) []string {
		reg := telemetry.New(telemetry.Options{EventCapacity: 4096})
		p := New(testSlab(3, 16, 16, 0.3), Options{
			Shards: 4, Seed: 5, AuditEvery: 4, RestartBackoff: 2,
			Workers: workers, Telemetry: reg,
		})
		defer p.Close()
		p.SetKillPlan(NewKillPlan([]KillEvent{
			{Step: 2, Shard: 0, Kind: Kill},
			{Step: 5, Shard: 2, Kind: Kill},
			{Step: 7, Shard: 2, Kind: Restart},
		}))
		r := rng.New(23)
		for i := 0; i < 16; i++ {
			p.Apply(randomPoolBatch(r, p.g.M(), 10))
		}
		return reg.Events().Strings()
	}
	a, b := run(1), run(1)
	if len(a) == 0 {
		t.Fatal("schedule produced no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces differ between identical runs:\n%v\n%v", a, b)
	}
	// Worker count must not leak into the trace: the parallel phase's
	// results are replayed serially, so a multi-worker pool traces the
	// same records.
	if c := run(4); !reflect.DeepEqual(a, c) {
		t.Fatalf("traces differ across worker counts:\n%v\n%v", a, c)
	}
}

// TestPoolTelemetryHammer races concurrent Applies, a kill schedule,
// metric readers and expositions against each other — the -race proof
// that shared histograms and the event ring survive the pool's parallel
// phase.
func TestPoolTelemetryHammer(t *testing.T) {
	p, reg := telPool(t, Options{Shards: 4, Seed: 9, RestartBackoff: 1})
	defer p.Close()
	p.SetKillPlan(NewKillPlan([]KillEvent{
		{Step: 3, Shard: 0, Kind: Kill},
		{Step: 6, Shard: 1, Kind: Kill},
		{Step: 9, Shard: 0, Kind: Restart},
	}))
	const writers, iters = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			for i := 0; i < iters; i++ {
				p.Apply(randomPoolBatch(r, p.g.M(), 6))
				p.Query()
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		h := reg.Histogram("pool_apply_ns", "")
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = h.Quantile(0.99)
			_ = reg.WritePrometheus(&strings.Builder{})
			_ = reg.Events().Tail(8)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := reg.Histogram("pool_apply_ns", "").Count(); got != writers*iters {
		t.Fatalf("apply histogram count %d, want %d", got, writers*iters)
	}
	checkPool(t, p, "post-hammer")
}
