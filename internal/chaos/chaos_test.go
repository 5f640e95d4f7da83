package chaos

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"distmatch/internal/golden"
)

const chaosSchedules = 100

// chaosSeeds returns the schedule seeds to run, honoring the same
// DISTMATCH_FUZZ_SEED replay handle as the dynamic fuzz suite.
func chaosSeeds(t *testing.T, total int) (seeds []uint64, replay bool) {
	t.Helper()
	if s := os.Getenv("DISTMATCH_FUZZ_SEED"); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("DISTMATCH_FUZZ_SEED=%q: %v", s, err)
		}
		t.Logf("replaying single chaos seed %d", seed)
		return []uint64{seed}, true
	}
	seeds = make([]uint64, total)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	return seeds, false
}

// TestChaosSchedules is the acceptance sweep: across the seeded table,
// no slot ever serves an invalid matching on the surviving live
// subgraph, every schedule re-converges to a certified (1−1/K) matching
// within the clean-slot bound, and — so the table cannot silently rot
// into a no-op — the schedules in aggregate really did inject faults,
// degrade serving and crash nodes.
func TestChaosSchedules(t *testing.T) {
	seeds, replay := chaosSeeds(t, chaosSchedules)
	var faults, degraded, recovering, crashed int
	for _, seed := range seeds {
		res, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d (replay: DISTMATCH_FUZZ_SEED=%d go test ./internal/chaos/): %v",
				seed, seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: nil error but not converged: %+v", seed, res)
		}
		faults += res.Faults
		degraded += res.Degraded
		recovering += res.Recovering
		crashed += res.Crashed
	}
	if replay {
		return
	}
	if faults == 0 || degraded == 0 || recovering == 0 || crashed == 0 {
		t.Fatalf("chaos table exercised nothing: faults=%d degraded=%d recovering=%d crashed=%d",
			faults, degraded, recovering, crashed)
	}
	t.Logf("chaos table: %d schedules, %d faults, %d degraded slots, %d recovering slots, %d crashes",
		len(seeds), faults, degraded, recovering, crashed)
}

// TestChaosDigest replays schedules against the committed digests: the
// full Result — slot-by-slot history included — must match bit for bit,
// faults and all.
func TestChaosDigest(t *testing.T) {
	tab := golden.Open(t, "chaos")
	for seed := uint64(0); seed < 25; seed++ {
		res, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tab.Check(t, fmt.Sprintf("seed=%d", seed), golden.New().Add(*res))
	}
}

// TestChaosSeedReplaysIdentically pins that a schedule is a pure
// function of its seed: two runs of the same seed produce equal Results.
func TestChaosSeedReplaysIdentically(t *testing.T) {
	for _, seed := range []uint64{3, 41} {
		a, errA := Run(Config{Seed: seed})
		b, errB := Run(Config{Seed: seed})
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: %v / %v", seed, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: replay diverges\nfirst  %+v\nsecond %+v", seed, a, b)
		}
	}
}

// TestChaosWorkersIrrelevant: the worker count is an execution detail,
// never a schedule input — more workers, same Result.
func TestChaosWorkersIrrelevant(t *testing.T) {
	a, errA := Run(Config{Seed: 7, Workers: 1})
	b, errB := Run(Config{Seed: 7, Workers: 4})
	if errA != nil || errB != nil {
		t.Fatalf("%v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed the schedule\n1 worker  %+v\n4 workers %+v", a, b)
	}
}
