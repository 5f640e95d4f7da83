package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

// span is one timed interval the benchmark recorded around a call into
// the program. Spans of one operation share Op, the id of its root span;
// Parent is 0 for a root. Times are nanoseconds since the phase began.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a span and returns its id; a root (parent 0) starts a new
// operation. Safe for concurrent use.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{id, op, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent})
	return id
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

// writeTrace writes DIR/<workload>.spans.jsonl and DIR/<workload>.layers.json.
func writeTrace(dir, name string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table, err := json.MarshalIndent(map[string]any{"workload": name, "layers": res.layers}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".layers.json"), append(table, '\n'), 0o644)
}

// snapshot is the program's counters at one instant, keyed by series
// name as the Prometheus exposition prints them (histograms contribute
// their _sum and _count series), plus the pool's lifetime totals under
// "pool.<Field>". Both in-process and HTTP workloads read the program
// through this one shape, so the per-layer table is computed once.
type snapshot map[string]float64

// parseExposition reads a Prometheus text exposition.
func parseExposition(text string) (snapshot, error) {
	s := snapshot{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

func (s snapshot) addTotals(t shard.Stats) {
	s["pool.Routed"] = float64(t.Routed)
	s["pool.Crossing"] = float64(t.Crossing)
	s["pool.Deferred"] = float64(t.Deferred)
	s["pool.AuditFailures"] = float64(t.AuditFailures)
}

// registrySnapshot reads reg (nil: nothing) and pool's totals (nil: none).
func registrySnapshot(reg *telemetry.Registry, pool *shard.Pool) (snapshot, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	s, err := parseExposition(buf.String())
	if err != nil {
		return nil, err
	}
	if pool != nil {
		s.addTotals(pool.Totals())
	}
	return s, nil
}

// since returns s − before, series by series.
func (s snapshot) since(before snapshot) snapshot {
	d := snapshot{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// histMean is the mean observation, in ns, of histogram family fam with
// the given label set ("" for none) over the interval.
func (s snapshot) histMean(fam, labels string) float64 {
	return ratio(s[fam+"_sum"+labels], s[fam+"_count"+labels])
}

// measured holds what the benchmark itself timed and counted during the
// traced phase, for the per-layer table.
type measured struct {
	seconds    float64   // wall time of the phase
	solves     int       // completed solves (solve workload)
	plainMS    []float64 // benchmark-timed pool slots without an audit, ms
	auditedMS  []float64 // ... and with one
	clientMS   []float64 // applies as the client saw them, from due time to response, ms
	queryNS    []float64 // Pool.Query calls, ns
	readBytes  []float64 // /v1/matching response sizes
	lagMS      []float64 // how late the generator sent each open-loop request, ms
	sideMS     []float64 // the secondary request stream's latencies, ms
	allocBytes float64   // bytes the process allocated (in-process workloads)
	gcs        float64   // garbage collections (in-process workloads)
	heapGrowMB float64   // live heap growth from set-up to the end of the phase (in-process workloads)
	genMS      float64   // graph generation, median over set-ups
	newMS      float64   // shard.New, median over set-ups
	maxMsgBits float64   // widest message of any solve
}

// layerMetrics is the per-layer table. A layer the workload does not
// exercise reads 0.
func layerMetrics(d snapshot, b measured) map[string]float64 {
	slots := float64(len(b.plainMS) + len(b.auditedMS))
	ops := slots + float64(b.solves) // the operations that run the engine
	const ms, us = 1e6, 1e3
	serverApply := d.histMean("http_request_ns", `{route="/v1/apply"}`)
	poolApply := d.histMean("pool_apply_ns", "")
	benchApply := ratio(sum(b.plainMS)+sum(b.auditedMS), slots)
	m := map[string]float64{
		"distmatchd.server_apply_ms":       serverApply / ms,
		"distmatchd.apply_unattributed_ms": 0,
		"distmatchd.server_read_ms":        d.histMean("http_request_ns", `{route="/v1/matching"}`) / ms,
		"distmatchd.read_bytes":            mean(b.readBytes),
		"distmatchd.client_queue_ms":       0,
		"shard.route_us":                   d.histMean("pool_route_ns", "") / us,
		"shard.commit_us":                  d.histMean("pool_commit_ns", "") / us,
		"shard.barrier_us":                 d.histMean("pool_barrier_ns", "") / us,
		"shard.slot_plain_us":              mean(b.plainMS) * 1e3,
		"shard.slot_audited_us":            mean(b.auditedMS) * 1e3,
		"shard.audit_slot_frac":            ratio(float64(len(b.auditedMS)), slots),
		"shard.epochs_per_slot":            ratio(d["pool_epochs_total"], slots),
		"shard.audit_failures_per_audit":   ratio(d["pool.AuditFailures"], d["pool_epochs_total"]),
		"shard.crossing_update_frac":       ratio(d["pool.Crossing"], d["pool.Routed"]+d["pool.Crossing"]+d["pool.Deferred"]),
		"shard.crossing_scanned_per_slot":  ratio(d["pool_crossing_scanned_total"], slots),
		"shard.resolver_rounds_per_slot":   ratio(d["pool_resolver_rounds_total"], slots),
		"shard.resolver_messages_per_slot": ratio(d["pool_resolver_messages_total"], slots),
		"shard.query_ns":                   mean(b.queryNS),
		"shard.timing_gap":                 ratio(benchApply*ms, poolApply),
		"dynamic.apply_us":                 d.histMean("maintainer_apply_ns", "") / us,
		"dynamic.repair_us":                d.histMean("maintainer_repair_ns", "") / us,
		"dynamic.repairs_per_slot":         ratio(d["maintainer_repair_ns_count"], slots),
		"dynamic.audit_us":                 d.histMean("maintainer_audit_ns", "") / us,
		"dynamic.audits_per_slot":          ratio(d["maintainer_audit_ns_count"], slots),
		"dist.rounds_per_op":               ratio(d["engine_rounds_total"], ops),
		"dist.messages_per_op":             ratio(d["engine_messages_total"], ops),
		"dist.node_rounds_per_op":          ratio(d["engine_node_rounds_total"], ops),
		"dist.oracle_calls_per_op":         ratio(d["engine_oracle_calls_total"], ops),
		"dist.sweep_us":                    d.histMean("engine_sweep_ns", "") / us,
		"dist.node_rounds_per_s":           ratio(d["engine_node_rounds_total"], d["engine_sweep_ns_sum"]/1e9),
		"core.max_msg_bits":                b.maxMsgBits,
		"proc.alloc_bytes_per_op":          ratio(b.allocBytes, ops),
		"proc.gc_per_s":                    ratio(b.gcs, b.seconds),
		"proc.heap_growth_mb":              b.heapGrowMB,
		"gen.graph_ms":                     b.genMS,
		"shard.new_ms":                     b.newMS,
		"loadgen.lag_ms":                   percentile(b.lagMS, 0.99),
		"loadgen.side_p50_ms":              percentile(b.sideMS, 0.5),
		"loadgen.side_p99_ms":              percentile(b.sideMS, 0.99),
		"telemetry.overhead_frac":          0, // set by measure
	}
	if serverApply > 0 {
		m["distmatchd.apply_unattributed_ms"] = (serverApply - poolApply) / ms
		m["distmatchd.client_queue_ms"] = mean(b.clientMS) - serverApply/ms
	}
	return m
}
