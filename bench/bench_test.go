package main

import (
	"io"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsReport runs every workload for about a second and checks
// that its outputs pass their checks and that it reports every
// end-to-end metric BENCHMARK.json names, finite, non-zero and with its
// unit.
func TestWorkloadsReport(t *testing.T) {
	sp := loadTestSpec(t)
	server := filepath.Join(t.TempDir(), "distmatchd")
	if out, err := exec.Command("go", "build", "-o", server, "distmatch/cmd/distmatchd").CombinedOutput(); err != nil {
		t.Fatalf("build distmatchd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.run(config{seed: 1, dur: time.Second, setupReps: 1, server: server})
			if err != nil {
				t.Fatal(err)
			}
			oc := report(io.Discard, sp, w.name, false, res)
			if !oc.Correct {
				t.Fatalf("attempted %d, failed %d: %v", oc.Attempted, oc.Failed, res.errs)
			}
			for _, m := range sp.EndToEnd {
				v := oc.Metrics[m.Name]
				if v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v %q, want a finite positive value in %q", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
		})
	}
}

// TestInProcessCountsRepeat runs each in-process workload twice, traced,
// for a fixed number of operations, and checks that the counts a later
// change may claim against repeat exactly, and that on churn-pool the
// benchmark's own slot timer agrees with the pool's pool_apply_ns.
func TestInProcessCountsRepeat(t *testing.T) {
	for _, c := range []struct {
		w   workload
		ops int
	}{{workloads[0], 16}, {workloads[1], 128}} {
		t.Run(c.w.name, func(t *testing.T) {
			cfg := config{seed: 1, dur: time.Minute, maxOps: c.ops, traced: true, setupReps: 1}
			var runs [2]*result
			for i := range runs {
				res, err := c.w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed > 0 {
					t.Fatalf("run %d: %v", i, res.errs)
				}
				runs[i] = res
			}
			for _, name := range []string{"match_ratio", "certified_frac", "dist.rounds_per_op"} {
				// Each name is in one of the two maps; the other reads 0.
				a, b := runs[0].e2e[name]+runs[0].layers[name], runs[1].e2e[name]+runs[1].layers[name]
				if a != b || a == 0 {
					t.Errorf("%s: %v then %v, want equal and non-zero", name, a, b)
				}
			}
			if c.w.name == "churn-pool" {
				if gap := runs[0].layers["shard.timing_gap"]; math.Abs(gap-1) > 0.1 {
					t.Errorf("shard.timing_gap = %v, want within 10%% of 1", gap)
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which judges the run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "mean_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.2, 9.8}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{10.3, 9.7, 10, 10.1, 9.9}, "same"},
		{"worse beyond the bound", []float64{11.5, 11.6, 11.4, 11.7, 11.3}, "worse"},
		{"better in every pair", []float64{8, 8.1, 7.9, 8.2, 7.8}, "better"},
	} {
		if got := verdict(lower, base, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10}
	if got := verdict(lower, noisy, []float64{10, 10, 10, 10, 10}); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict = %s, want unresolved", got)
	}
}
