package dynamic

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// TestHealthTransitionTable pins the legality of every observable
// Health transition pair. The shard supervisor asserts ValidTransition
// on every Apply it relays; this table is the contract it leans on: the
// single illegal observation is Degraded→Healthy, because a ladder
// success must surface as Recovering for at least one full Apply before
// a forced audit may certify it.
func TestHealthTransitionTable(t *testing.T) {
	states := []Health{Healthy, Degraded, Recovering}
	legal := map[[2]Health]bool{
		{Healthy, Healthy}:       true,  // fault-free steady state
		{Healthy, Degraded}:      true,  // fault, ladder exhausted within one Apply
		{Healthy, Recovering}:    true,  // fault, ladder succeeded within one Apply (or Adopt/Restore)
		{Degraded, Healthy}:      false, // certification cannot be skipped
		{Degraded, Degraded}:     true,  // ladder exhausted again
		{Degraded, Recovering}:   true,  // ladder succeeded; audit suppressed this step
		{Recovering, Healthy}:    true,  // forced audit certified
		{Recovering, Degraded}:   true,  // forced audit (or maintenance) lost to a fault
		{Recovering, Recovering}: true,  // still uncertified
	}
	for _, from := range states {
		for _, to := range states {
			want, ok := legal[[2]Health{from, to}]
			if !ok {
				t.Fatalf("table misses pair %v→%v", from, to)
			}
			if got := ValidTransition(from, to); got != want {
				t.Errorf("ValidTransition(%v, %v) = %v, want %v", from, to, got, want)
			}
		}
	}
}

// TestHealthDrivenTransitions walks a real Maintainer through every
// legal edge of the health machine on the 4x4 slab and asserts the
// observable sequence step for step — including the two properties the
// supervisor depends on: the repairing Apply suppresses its own audit
// (so Recovering is observable), and the step after Recovering runs a
// forced audit whose clean certificate is the only way back to Healthy.
func TestHealthDrivenTransitions(t *testing.T) {
	mt := New(slab44(), Options{K: 2, Seed: 7, StartEmpty: true})
	defer mt.Close()
	prev := mt.Health()
	observe := func(label string, rep ApplyReport, want Health) {
		t.Helper()
		if rep.Health != want {
			t.Fatalf("%s: health %v, want %v (report %+v)", label, rep.Health, want, rep)
		}
		if !ValidTransition(prev, rep.Health) {
			t.Fatalf("%s: observed illegal transition %v→%v", label, prev, rep.Health)
		}
		prev = rep.Health
	}

	// Healthy→Healthy: clean maintenance.
	rep := mt.Apply(Batch{{Edge: eid(0, 0), Op: Insert}, {Edge: eid(1, 1), Op: Insert}})
	observe("warmup", rep, Healthy)

	// Healthy→Degraded: node 2 is in the insert's region and in every
	// full pass, so all three ladder levels exhaust their retries.
	mt.InjectFaults(dist.NewFaultPlan([]dist.FaultEvent{
		{Round: 0, Kind: dist.FaultPanic, Node: 2},
	}))
	rep = mt.Apply(Batch{{Edge: eid(2, 2), Op: Insert}})
	observe("exhaustion", rep, Degraded)
	if rep.Audited {
		t.Fatal("audit ran while Degraded")
	}

	// Degraded→Degraded: another batch whose region contains node 2
	// exhausts the ladder again.
	rep = mt.Apply(Batch{{Edge: eid(2, 3), Op: Insert}})
	observe("still degraded", rep, Degraded)

	// Degraded→Recovering: this delete's region is the isolated pair
	// {0, 4}, which dodges node 2, so the regional attempt succeeds. The
	// repairing step must NOT audit — Recovering stays observable.
	rep = mt.Apply(Batch{{Edge: eid(0, 0), Op: Delete}})
	observe("ladder success", rep, Recovering)
	if rep.Audited {
		t.Fatal("the repairing step must suppress its own audit")
	}

	// Recovering→Degraded: the forced audit probes the whole live
	// subgraph, which contains node 2, and is lost to the still-armed
	// panic.
	rep = mt.Apply(nil)
	observe("faulted audit", rep, Degraded)
	if !rep.Audited || rep.CertificateOK || rep.Faults == 0 {
		t.Fatalf("faulted audit report %+v", rep)
	}

	// Degraded→Recovering once more, via the trivial (empty-dirty)
	// maintenance step after disarming.
	mt.InjectFaults(nil)
	rep = mt.Apply(nil)
	observe("disarmed recovery", rep, Recovering)
	if rep.Audited {
		t.Fatal("the repairing step must suppress its own audit")
	}

	// Recovering→Healthy: audits are forced while Recovering, and the
	// clean certificate is the promotion. This is the certification the
	// supervisor waits for before unfencing a shard.
	rep = mt.Apply(nil)
	observe("certification", rep, Healthy)
	if !rep.Audited || !rep.CertificateOK {
		t.Fatalf("certifying step report %+v", rep)
	}

	// Healthy→Recovering: adopting an externally resolved matching is
	// served immediately but uncertified.
	matched := make([]int32, mt.Graph().N())
	for v := range matched {
		matched[v] = -1
	}
	matched[1], matched[4+1] = int32(eid(1, 1)), int32(eid(1, 1))
	if err := mt.Adopt(matched, false); err != nil {
		t.Fatal(err)
	}
	if !ValidTransition(prev, mt.Health()) || mt.Health() != Recovering {
		t.Fatalf("Adopt: health %v (prev %v), want Recovering", mt.Health(), prev)
	}
	prev = Recovering
	if got := mt.Matching().Size(); got != 1 {
		t.Fatalf("adopted matching not served: size %d, want 1", got)
	}

	// ... and the next Apply's forced audit certifies (recomputing if
	// the adopted matching missed the bound) back to Healthy.
	rep = mt.Apply(nil)
	observe("post-adopt certification", rep, Healthy)
	if !rep.Audited || !rep.CertificateOK {
		t.Fatalf("post-adopt report %+v", rep)
	}
	checkState(t, mt, 0, 0)
	checkRatio(t, mt, 0, 0)
}

// TestHealthRandomSchedulesNeverSkipCertification fuzzes fault schedules
// and asserts no consecutive pair of observed health states is illegal:
// in particular a Maintainer must never be seen jumping Degraded→Healthy,
// whatever the schedule does.
func TestHealthRandomSchedulesNeverSkipCertification(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(13), 8, 8, 0.35)
	mt := New(g, Options{K: 2, Seed: 11, StartEmpty: true, AuditEvery: 2})
	defer mt.Close()
	r := rng.New(99)
	prev := mt.Health()
	sawFault := false
	for trial := 0; trial < 6; trial++ {
		mt.InjectFaults(dist.RandomFaultPlan(uint64(trial)+1, g.N(), g.M(), dist.FaultProfile{
			Rounds: 6, Crashes: 2, Drops: 3, Panics: 2,
		}))
		for step := 0; step < 6; step++ {
			rep := mt.Apply(randomBatch(r, mt, 3))
			sawFault = sawFault || rep.Faults > 0
			if !ValidTransition(prev, rep.Health) {
				t.Fatalf("trial %d step %d: illegal transition %v→%v", trial, step, prev, rep.Health)
			}
			prev = rep.Health
		}
		mt.InjectFaults(nil)
		for i := 0; i < 8 && mt.Health() != Healthy; i++ {
			rep := mt.Apply(nil)
			if !ValidTransition(prev, rep.Health) {
				t.Fatalf("trial %d heal %d: illegal transition %v→%v", trial, i, prev, rep.Health)
			}
			prev = rep.Health
		}
		if mt.Health() != Healthy {
			t.Fatalf("trial %d: not Healthy after clean applies", trial)
		}
	}
	if !sawFault {
		t.Fatal("no schedule produced a fault; the sweep exercised nothing")
	}
}

// TestAdoptVerdictHealth: a certified adoption keeps the Maintainer's
// health — Healthy stays Healthy and serves the adopted matching, a
// Recovering one still waits for its own audit — while an uncertified
// adoption ends Recovering.
func TestAdoptVerdictHealth(t *testing.T) {
	mt := New(slab44(), Options{K: 3, Seed: 5})
	defer mt.Close()
	mt.Recompute()
	matched := make([]int32, mt.Graph().N())
	for v := range matched {
		matched[v] = -1
	}
	for i := 0; i < 4; i++ {
		matched[i], matched[4+i] = int32(eid(i, i)), int32(eid(i, i))
	}
	steps := []struct {
		certified bool
		want      Health
	}{
		{true, Healthy},     // certified push-back onto a Healthy shard
		{false, Recovering}, // uncertified push-back
		{true, Recovering},  // a certified one does not skip the shard's own audit
	}
	for i, st := range steps {
		if err := mt.Adopt(matched, st.certified); err != nil {
			t.Fatal(err)
		}
		if mt.Health() != st.want {
			t.Fatalf("step %d: Adopt(certified=%v) left health %v, want %v", i, st.certified, mt.Health(), st.want)
		}
		if got := mt.Matching().Size(); got != 4 {
			t.Fatalf("step %d: adopted matching not served: size %d", i, got)
		}
	}
	if rep := mt.Apply(nil); !rep.Audited || !rep.CertificateOK || mt.Health() != Healthy {
		t.Fatalf("forced audit after the uncertified adoption: %+v, health %v", rep, mt.Health())
	}
}
