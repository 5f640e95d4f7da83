package main

import (
	"runtime"
	"time"

	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

// The solve workload: the paper's headline algorithm with no serving
// stack. A closed loop with one caller runs BipartiteMCM over a fixed set
// of random bipartite graphs with average degree 4, so nearly all time is
// engine sweeps and the §3 phases.
const (
	solveN      = 4096 // nodes per side
	solveGraphs = 8
	solveK      = 3
)

func runSolve(cfg config) (*result, error) {
	res := newResult()
	var graphs []*graph.Graph
	var setup, heap []float64
	for i := 0; i < cfg.setupReps; i++ {
		t0 := time.Now()
		graphs = graphs[:0]
		for j := 0; j < solveGraphs; j++ {
			r := rng.New(rng.ForkSeed(cfg.seed, uint64(j)+1))
			graphs = append(graphs, gen.BipartiteGnp(r, solveN, solveN, 4.0/solveN))
		}
		setup = append(setup, time.Since(t0).Seconds())
		heap = append(heap, liveHeapMB())
	}
	heapMB := median(heap)
	opt := make([]int, len(graphs))
	for j, g := range graphs {
		opt[j] = exact.HopcroftKarp(g).Size()
	}

	var reg *telemetry.Registry
	if cfg.traced {
		reg = telemetry.New(telemetry.Options{EventCapacity: -1})
		dist.SetTelemetry(reg)
		defer dist.SetTelemetry(nil)
	}
	for j, g := range graphs { // warm-up: fills the engine's slab pool
		core.BipartiteMCM(g, solveK, uint64(j), true)
	}

	tr := newTracer(cfg.traced)
	before, err := registrySnapshot(reg, nil)
	if err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var lat []float64
	var ratioSum float64
	var maxBits, certified int
	start := time.Now()
	for i := 0; !cfg.done(start, i); i++ {
		j := i % solveGraphs
		g := graphs[j]
		t0 := time.Now()
		m, st := core.BipartiteMCM(g, solveK, uint64(solveGraphs+i), true)
		t1 := time.Now()
		tr.add("solve", t0, t1, 0)
		lat = append(lat, t1.Sub(t0).Seconds()*1e3)
		res.attempted++
		maxBits = max(maxBits, st.MaxMessageBits)
		if err := m.Verify(g); err != nil {
			res.fail("solve %d: %v", i, err)
			continue
		}
		if approxOK(m.Size(), opt[j], solveK) {
			certified++
		} else {
			res.fail("solve %d: |M| = %d below (1-1/%d) of OPT = %d", i, m.Size(), solveK, opt[j])
		}
		ratioSum += float64(m.Size()) / float64(opt[j])
	}
	elapsed := time.Since(start).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	after, err := registrySnapshot(reg, nil)
	if err != nil {
		return nil, err
	}

	n := float64(len(lat))
	res.mean = mean(lat)
	res.e2e["setup_s"] = median(setup)
	res.e2e["mean_ms"] = res.mean
	res.e2e["tail_ms"] = percentile(lat, 0.9) // p99 would have under ten solves beyond it
	res.e2e["ops_per_s"] = n / sum(lat) * 1e3
	res.e2e["match_ratio"] = ratioSum / n
	res.e2e["certified_frac"] = float64(certified) / n
	res.e2e["mem_mb"] = heapMB
	if cfg.traced {
		res.spans = tr.all()
		res.layers = layerMetrics(after.since(before), measured{
			seconds:    elapsed,
			solves:     len(lat),
			allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
			gcs:        float64(ms1.NumGC - ms0.NumGC),
			heapGrowMB: liveHeapMB() - heapMB,
			genMS:      median(setup) * 1e3,
			maxMsgBits: float64(maxBits),
		})
	}
	runtime.KeepAlive(graphs) // heap growth is measured with the inputs live
	return res, nil
}
