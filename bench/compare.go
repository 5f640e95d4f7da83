package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// runCompare reads two -out files, the parent's (A) and the change's (B),
// and prints one row per (workload, end-to-end metric): each side's
// median and quartiles over its correct untraced runs, and a verdict. It
// reports whether any verdict is "worse". With one file it prints that
// file's medians and quartiles as JSON.
func runCompare(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	if pathB == "" {
		return false, writeSummary(w, sp, a)
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "change", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			v := verdict(m, va, vb)
			worse = worse || v == "worse"
			change := 100 * ratio(median(vb)-median(va), math.Abs(median(va)))
			fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %+7.2f%%  %s\n", wl.name, m.Name, describe(va), describe(vb), change, v)
		}
	}
	return worse, nil
}

// verdict applies the metric's bound. A change is "better" when it wins
// at least nine tenths of the paired runs and the medians differ by more
// than the parent's quartile spread; "worse" when its median is worse
// than the parent's by more than the bound; "unresolved" when the
// parent's own spread exceeds the bound, unless every run of the change
// beats every run of the parent; otherwise "same".
func verdict(m metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	dir := 1.0
	if m.Better == "lower" {
		dir = -1
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	allBetter := slices.Min(b) > slices.Max(a)
	if dir < 0 {
		allBetter = slices.Max(b) < slices.Min(a)
	}
	if q3-q1 > m.Bound*math.Abs(ma) && !allBetter {
		return "unresolved"
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if dir*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	gain := dir * (mb - ma)
	switch {
	case 10*wins >= 9*pairs && gain > q3-q1:
		return "better"
	case -gain > m.Bound*math.Abs(ma):
		return "worse"
	}
	return "same"
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}

type quartileSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

func writeSummary(w io.Writer, sp *spec, recs map[string][]record) error {
	out := map[string]map[string]quartileSummary{}
	for name, rs := range recs {
		out[name] = map[string]quartileSummary{}
		for _, m := range sp.EndToEnd {
			xs := values(rs, m.Name)
			q1, q3 := quartiles(xs)
			out[name][m.Name] = quartileSummary{median(xs), q1, q3, len(xs)}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// loadRecords returns the correct untraced runs of an -out file, by
// workload, in file order.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 && r.Correct {
			recs[r.Workload] = append(recs[r.Workload], r)
		}
	}
	return recs, sc.Err()
}

func values(rs []record, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
