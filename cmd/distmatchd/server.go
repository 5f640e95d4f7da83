package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"distmatch/internal/dynamic"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

// server is the HTTP facade over one shard.Pool. The Pool is already
// goroutine-safe (mutators serialize on its write lock, queries take the
// read lock), so handlers call it directly; the TimeoutHandler wrapper
// bounds every request so a slow apply can never wedge a client.
type server struct {
	pool *shard.Pool
	reg  *telemetry.Registry
}

// newHandler builds the routed, timeout-bounded handler for p. The
// instrumentation middleware sits OUTSIDE the TimeoutHandler so a timed-
// out request is recorded with the 503 the client saw and a latency of
// the full timeout, not whatever the abandoned handler did. reg may be
// nil (no metrics); logw may be nil (no access log).
func newHandler(p *shard.Pool, timeout time.Duration, reg *telemetry.Registry, logw io.Writer) http.Handler {
	s := &server{pool: p, reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/apply", s.handleApply)
	mux.HandleFunc("GET /v1/matching", s.handleMatching)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/shards/{id}/kill", s.handleKill)
	mux.HandleFunc("POST /v1/shards/{id}/restart", s.handleRestart)
	return instrument(http.TimeoutHandler(mux, timeout, `{"error":"request timed out"}`), reg, logw)
}

// routeLabel collapses a request path to its route template so per-route
// metrics stay low-cardinality (shard ids would otherwise mint a series
// per id, and unknown paths a series per probe).
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/v1/shards/"); ok {
		if strings.HasSuffix(rest, "/kill") {
			return "/v1/shards/{id}/kill"
		}
		if strings.HasSuffix(rest, "/restart") {
			return "/v1/shards/{id}/restart"
		}
		return "/v1/shards/{id}"
	}
	switch p {
	case "/v1/apply", "/v1/matching", "/v1/health", "/v1/stats", "/v1/events", "/metrics":
		return p
	}
	return "other"
}

// statusWriter captures what actually went to the client.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps next with the access log and the per-route request
// metrics: http_request_ns{route=...} latency histograms and
// http_requests_total{route=...,code=...} counters.
func instrument(next http.Handler, reg *telemetry.Registry, logw io.Writer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		route := routeLabel(r)
		reg.Histogram(fmt.Sprintf("http_request_ns{route=%q}", route),
			"request latency by route, ns").ObserveSince(t0)
		reg.Counter(fmt.Sprintf("http_requests_total{route=%q,code=\"%d\"}", route, sw.code),
			"requests served by route and status").Add(1)
		if logw != nil {
			fmt.Fprintf(logw, "%s %s %s %d %dB %s\n",
				time.Now().UTC().Format(time.RFC3339), r.Method, r.URL.Path,
				sw.code, sw.bytes, time.Since(t0).Round(time.Microsecond))
		}
	})
}

// newDebugHandler builds the -debugaddr mux: pprof plus a second
// /metrics, so profiling and scraping stay possible when the serving
// port is saturated or behind a stricter ACL.
func newDebugHandler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, reg)
	})
	return mux
}

// applyRequest is the POST /v1/apply body: one batch of edge updates
// against the slab, applied atomically per shard. Client and Seq opt in
// to exactly-once semantics: a non-empty client id with a batch sequence
// number routes through Pool.ApplySeq, so a request that times out on
// the wire (the TimeoutHandler answers 503 while the pool keeps
// committing) can be retried with the same (client, seq) without
// double-applying — the retry gets the cached report with "duplicate"
// set. Each client may have at most one batch outstanding.
type applyRequest struct {
	Updates []updateJSON `json:"updates"`
	Client  string       `json:"client,omitempty"`
	Seq     uint64       `json:"seq,omitempty"`
}

// Apply input bounds: a request body over maxApplyBody bytes is answered
// 413 before it is decoded, and a client id over maxClientID bytes 400 —
// the pool keeps one idempotency record per client id, so an unbounded
// id would be unbounded memory.
const (
	maxApplyBody = 1 << 20
	maxClientID  = 256
)

type updateJSON struct {
	Edge   int     `json:"edge"`
	Op     string  `json:"op"` // insert | delete | setweight
	Weight float64 `json:"weight,omitempty"`
}

// reportJSON mirrors shard.Report for the wire.
type reportJSON struct {
	Step            int      `json:"step"`
	Seq             uint64   `json:"seq,omitempty"`
	Duplicate       bool     `json:"duplicate,omitempty"`
	Routed          int      `json:"routed"`
	Crossing        int      `json:"crossing"`
	Deferred        int      `json:"deferred"`
	Killed          []int    `json:"killed,omitempty"`
	Restarted       []int    `json:"restarted,omitempty"`
	Crashed         []int    `json:"crashed,omitempty"`
	Healths         []string `json:"healths"`
	Down            []bool   `json:"down"`
	Audited         bool     `json:"audited"`
	CertificateOK   bool     `json:"certificate_ok"`
	CrossingMatched int      `json:"crossing_matched"`
	Degraded        bool     `json:"degraded"`
}

func toReportJSON(rep shard.Report) reportJSON {
	hs := make([]string, len(rep.Healths))
	for i, h := range rep.Healths {
		hs[i] = h.String()
	}
	return reportJSON{
		Step: rep.Step, Seq: rep.Seq, Duplicate: rep.Duplicate,
		Routed: rep.Routed, Crossing: rep.Crossing, Deferred: rep.Deferred,
		Killed: rep.Killed, Restarted: rep.Restarted, Crashed: rep.Crashed,
		Healths: hs, Down: rep.Down,
		Audited: rep.Audited, CertificateOK: rep.CertificateOK,
		CrossingMatched: rep.CrossingMatched, Degraded: rep.Degraded,
	}
}

func (s *server) handleApply(w http.ResponseWriter, r *http.Request) {
	var req applyRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxApplyBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "apply body over %d bytes", maxApplyBody)
			return
		}
		httpError(w, http.StatusBadRequest, "bad apply body: %v", err)
		return
	}
	if len(req.Client) > maxClientID {
		httpError(w, http.StatusBadRequest, "client id of %d bytes over the %d-byte limit", len(req.Client), maxClientID)
		return
	}
	m := s.pool.Graph().M()
	batch := make(dynamic.Batch, 0, len(req.Updates))
	for i, u := range req.Updates {
		if u.Edge < 0 || u.Edge >= m {
			httpError(w, http.StatusBadRequest, "update %d: edge %d outside slab of %d edges", i, u.Edge, m)
			return
		}
		var op dynamic.Op
		switch u.Op {
		case "insert":
			op = dynamic.Insert
		case "delete":
			op = dynamic.Delete
		case "setweight":
			op = dynamic.SetWeight
		default:
			httpError(w, http.StatusBadRequest, "update %d: unknown op %q (insert | delete | setweight)", i, u.Op)
			return
		}
		batch = append(batch, dynamic.Update{Edge: u.Edge, Op: op, Weight: u.Weight})
	}
	if req.Client != "" {
		writeJSON(w, http.StatusOK, toReportJSON(s.pool.ApplySeq(req.Client, req.Seq, batch)))
		return
	}
	writeJSON(w, http.StatusOK, toReportJSON(s.pool.Apply(batch)))
}

// matchingResponse is the GET /v1/matching body: the composed matching
// with its serving flags — partial results are explicit, never silent.
type matchingResponse struct {
	Size int `json:"size"`
	// Edges lists the matched edges as [edge, u, v] triples.
	Edges [][3]int `json:"edges"`
	// Degraded means the answer may be partial or stale; Down and Stale
	// name the shards responsible (down, or serving last-good snapshots).
	Degraded bool  `json:"degraded"`
	Down     []int `json:"down,omitempty"`
	Stale    []int `json:"stale,omitempty"`
	// Certified reports the pool's conflict audit: the composed matching
	// is (1−1/K)-approximate on the live subgraph.
	Certified bool `json:"certified"`
	Step      int  `json:"step"`
}

func (s *server) handleMatching(w http.ResponseWriter, r *http.Request) {
	q := s.pool.Query()
	g := s.pool.Graph()
	edges := make([][3]int, 0, q.Matching.Size())
	for _, e := range q.Matching.Edges(g) {
		u, v := g.Endpoints(e)
		edges = append(edges, [3]int{e, u, v})
	}
	writeJSON(w, http.StatusOK, matchingResponse{
		Size: q.Matching.Size(), Edges: edges,
		Degraded: q.Degraded, Down: q.Down, Stale: q.Stale,
		Certified: q.Certified, Step: q.Step,
	})
}

// healthResponse is the GET /v1/health body. The status code carries the
// load-balancer contract: 200 while every shard serves fresh answers,
// 503 while any shard is down or stale — degraded serving continues on
// /v1/matching either way.
type healthResponse struct {
	Degraded  bool          `json:"degraded"`
	Certified bool          `json:"certified"`
	Step      int           `json:"step"`
	Shards    []shardStatus `json:"shards"`
}

type shardStatus struct {
	ID            int    `json:"id"`
	Health        string `json:"health"`
	Up            bool   `json:"up"`
	Restarts      int    `json:"restarts"`
	Backoff       int    `json:"backoff"`
	WakeAt        int    `json:"wake_at,omitempty"`
	Nodes         int    `json:"nodes"`
	InternalEdges int    `json:"internal_edges"`
}

func toShardStatus(id int, sh shard.ShardStatus) shardStatus {
	return shardStatus{
		ID: id, Health: sh.Health.String(), Up: sh.Up,
		Restarts: sh.Restarts, Backoff: sh.Backoff, WakeAt: sh.WakeAt,
		Nodes: sh.Nodes, InternalEdges: sh.InternalEdges,
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	q := s.pool.Query()
	st := s.pool.Status()
	resp := healthResponse{Degraded: q.Degraded, Certified: q.Certified, Step: q.Step}
	for id, sh := range st {
		resp.Shards = append(resp.Shards, toShardStatus(id, sh))
	}
	code := http.StatusOK
	if q.Degraded {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// statsResponse is the GET /v1/stats body: the lifetime pool counters
// plus a live per-shard status block, so one scrape answers both "what
// has this pool done" and "what state is it in right now".
type statsResponse struct {
	Totals shard.Stats `json:"totals"`
	// Nodes and Edges are the slab dimensions — what a load generator
	// needs to synthesize valid updates without shipping the graph.
	Nodes     int          `json:"nodes"`
	Edges     int          `json:"edges"`
	Step      int          `json:"step"`
	Degraded  bool         `json:"degraded"`
	Certified bool         `json:"certified"`
	Shards    []shardStats `json:"shards"`
}

// shardStats is the /v1/stats per-shard block: the health view plus the
// shard Maintainer's certificate counts (current incarnation).
type shardStats struct {
	shardStatus
	Audits        int `json:"audits"`
	AuditFailures int `json:"audit_failures"`
	Recomputes    int `json:"recomputes"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	q := s.pool.Query()
	resp := statsResponse{
		Totals: s.pool.Totals(),
		Nodes:  s.pool.Graph().N(), Edges: s.pool.Graph().M(),
		Step: q.Step, Degraded: q.Degraded, Certified: q.Certified,
	}
	for id, sh := range s.pool.Status() {
		resp.Shards = append(resp.Shards, shardStats{
			shardStatus: toShardStatus(id, sh),
			Audits:      sh.Audits, AuditFailures: sh.AuditFailures, Recomputes: sh.Recomputes,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// eventJSON is one trace record on the wire; Kind goes out as its name
// and Text as the canonical rendered form the chaos harness compares.
type eventJSON struct {
	Seq   uint64 `json:"seq"`
	Slot  int64  `json:"slot"`
	Kind  string `json:"kind"`
	Shard int32  `json:"shard"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	Text  string `json:"text"`
}

// handleEvents serves the newest n trace records (?n=, default 64) in
// append order, with the ring's total so a poller can tell how much it
// missed between scrapes.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 64
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			httpError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = p
	}
	ring := s.reg.Events()
	records := ring.Tail(n)
	out := make([]eventJSON, len(records))
	for i, e := range records {
		out[i] = eventJSON{
			Seq: e.Seq, Slot: e.Slot, Kind: e.Kind.String(),
			Shard: e.Shard, A: e.A, B: e.B, Text: e.String(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": ring.Total(), "events": out})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeMetrics(w, s.reg)
}

func writeMetrics(w http.ResponseWriter, reg *telemetry.Registry) {
	if reg == nil {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}

func (s *server) handleKill(w http.ResponseWriter, r *http.Request) {
	id, ok := shardID(w, r, s.pool.Shards())
	if !ok {
		return
	}
	if err := s.pool.KillShard(id); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"killed": id})
}

func (s *server) handleRestart(w http.ResponseWriter, r *http.Request) {
	id, ok := shardID(w, r, s.pool.Shards())
	if !ok {
		return
	}
	if err := s.pool.RestartShard(id); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"restarted": id})
}

func shardID(w http.ResponseWriter, r *http.Request, n int) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= n {
		httpError(w, http.StatusNotFound, "no shard %q of %d", r.PathValue("id"), n)
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
