package main

import (
	"fmt"
	"runtime"
	"time"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

// The churn-pool workload: an in-process 4-shard pool over a large slab,
// driven by one closed-loop caller of ApplySeq with no HTTP and no lock
// contention. The median slot is route, regional repair and publish; the
// tail slot is the pool audit epoch, every AuditEvery-th slot.
const (
	poolN      = 4096 // nodes per side
	poolShards = 4
	poolK      = 3
	poolAudit  = 8
	poolWarm   = 64  // untimed balanced slots before timing
	checkEvery = 127 // checkpoint period in slots; coprime to poolAudit, so checkpoints visit every audit phase
)

func runChurnPool(cfg config) (*result, error) {
	res := newResult()
	var reg *telemetry.Registry
	if cfg.traced {
		reg = telemetry.New(telemetry.Options{EventCapacity: -1})
		dist.SetTelemetry(reg)
		defer dist.SetTelemetry(nil)
	}
	var g *graph.Graph
	var pool *shard.Pool
	var setup, genMS, newMS, heap []float64
	for i := 0; i < cfg.setupReps; i++ {
		if pool != nil {
			pool.Close()
		}
		t0 := time.Now()
		g = gen.BipartiteGnp(rng.New(rng.ForkSeed(cfg.seed, 101)), poolN, poolN, 4.0/poolN)
		t1 := time.Now()
		pool = shard.New(g, shard.Options{
			Shards: poolShards, K: poolK, AuditEvery: poolAudit,
			Seed: rng.ForkSeed(cfg.seed, 102), Telemetry: reg,
		})
		t2 := time.Now()
		setup = append(setup, t2.Sub(t0).Seconds())
		genMS = append(genMS, t1.Sub(t0).Seconds()*1e3)
		newMS = append(newMS, t2.Sub(t1).Seconds()*1e3)
		heap = append(heap, liveHeapMB())
	}
	defer pool.Close()
	heapMB := median(heap)

	mir := newMirror(g)
	r := rng.New(rng.ForkSeed(cfg.seed, 103))
	seq := uint64(0)
	for mir.dead() < g.M()/32 {
		seq++
		pool.ApplySeq("bench", seq, mir.churn(r, 32, 0))
	}
	for i := 0; i < poolWarm; i++ {
		seq++
		pool.ApplySeq("bench", seq, mir.churn(r, 2, 2))
	}

	tr := newTracer(cfg.traced)
	before, err := registrySnapshot(reg, pool)
	if err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var lat, plain, audited, queryNS []float64
	var ratioSum float64
	var checkpoints, certified int
	start := time.Now()
	for i := 0; !cfg.done(start, i); i++ {
		b := mir.churn(r, 2, 2)
		seq++
		t0 := time.Now()
		rep := pool.ApplySeq("bench", seq, b)
		t1 := time.Now()
		q := pool.Query()
		t2 := time.Now()
		if tr != nil {
			id := tr.add("slot", t0, t2, 0)
			tr.add("apply", t0, t1, id)
			tr.add("query", t1, t2, id)
		}
		ms := t1.Sub(t0).Seconds() * 1e3
		lat = append(lat, ms)
		if rep.Audited {
			audited = append(audited, ms)
		} else {
			plain = append(plain, ms)
		}
		queryNS = append(queryNS, float64(t2.Sub(t1).Nanoseconds()))
		res.attempted++
		if err := checkSlot(rep, q, seq); err != nil {
			res.fail("slot %d: %v", i, err)
			continue
		}
		if err := mir.checkLive(q.Matching); err != nil {
			res.fail("slot %d: %v", i, err)
			continue
		}
		if q.Certified {
			certified++
		}
		if i%checkEvery == 0 {
			opt := mir.opt()
			checkpoints++
			ratioSum += float64(q.Matching.Size()) / float64(opt)
			if q.Certified && !approxOK(q.Matching.Size(), opt, poolK) {
				res.fail("slot %d: certified |M| = %d below (1-1/%d) of OPT = %d", i, q.Matching.Size(), poolK, opt)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	after, err := registrySnapshot(reg, pool)
	if err != nil {
		return nil, err
	}

	n := float64(len(lat))
	res.mean = mean(lat)
	res.e2e["setup_s"] = median(setup)
	res.e2e["mean_ms"] = res.mean
	res.e2e["tail_ms"] = percentile(lat, 0.99)
	res.e2e["ops_per_s"] = n / sum(lat) * 1e3
	res.e2e["match_ratio"] = ratioSum / float64(checkpoints)
	res.e2e["certified_frac"] = float64(certified) / n
	res.e2e["mem_mb"] = heapMB
	if cfg.traced {
		res.spans = tr.all()
		res.layers = layerMetrics(after.since(before), measured{
			seconds:    elapsed,
			plainMS:    plain,
			auditedMS:  audited,
			queryNS:    queryNS,
			allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
			gcs:        float64(ms1.NumGC - ms0.NumGC),
			heapGrowMB: liveHeapMB() - heapMB, // the pool stays reachable until the deferred Close
			genMS:      median(genMS),
			newMS:      median(newMS),
		})
	}
	return res, nil
}

// checkSlot checks a slot's report and the query that followed it: the
// batch applied once, and the pool serves every shard fresh.
func checkSlot(rep shard.Report, q shard.Response, seq uint64) error {
	switch {
	case rep.Duplicate || rep.Seq != seq:
		return fmt.Errorf("ApplySeq(%d) reported seq %d, duplicate=%v", seq, rep.Seq, rep.Duplicate)
	case q.Degraded || rep.Degraded:
		return fmt.Errorf("pool degraded with no fault injected")
	case q.Step != rep.Step+1:
		return fmt.Errorf("query reflects %d slots after slot %d", q.Step, rep.Step)
	}
	return nil
}
