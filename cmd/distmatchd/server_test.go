package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"distmatch/internal/gen"
	"distmatch/internal/rng"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

func testServer(t *testing.T) (*shard.Pool, *httptest.Server) {
	pool, ts, _ := testServerTel(t)
	return pool, ts
}

func testServerTel(t *testing.T) (*shard.Pool, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.New(telemetry.Options{EventCapacity: 1024})
	g := gen.BipartiteGnp(rng.New(7), 12, 12, 0.3)
	pool := shard.New(g, shard.Options{
		Shards: 4, K: 2, Seed: 7, StartEmpty: true, AuditEvery: 4, Telemetry: reg,
	})
	ts := httptest.NewServer(newHandler(pool, 5*time.Second, reg, io.Discard))
	t.Cleanup(func() { ts.Close(); pool.Close() })
	return pool, ts, reg
}

func doJSON(t *testing.T, method, url, body string, wantCode int) map[string]any {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d (%v)", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

// TestServerApplyAndMatching drives inserts through the API and reads
// the composed matching back with its flags.
func TestServerApplyAndMatching(t *testing.T) {
	pool, ts := testServer(t)
	g := pool.Graph()

	// Insert every edge in a few batches, then let the audit certify.
	for e := 0; e < g.M(); e += 8 {
		var ups []string
		for i := e; i < e+8 && i < g.M(); i++ {
			ups = append(ups, fmt.Sprintf(`{"edge":%d,"op":"insert","weight":1.5}`, i))
		}
		rep := doJSON(t, "POST", ts.URL+"/v1/apply",
			`{"updates":[`+strings.Join(ups, ",")+`]}`, http.StatusOK)
		if rep["degraded"].(bool) {
			t.Fatalf("fault-free apply degraded: %v", rep)
		}
	}
	for i := 0; i < 8; i++ {
		doJSON(t, "POST", ts.URL+"/v1/apply", `{"updates":[]}`, http.StatusOK)
	}

	m := doJSON(t, "GET", ts.URL+"/v1/matching", "", http.StatusOK)
	if m["size"].(float64) == 0 {
		t.Fatalf("matching empty after inserting every edge: %v", m)
	}
	if !m["certified"].(bool) {
		t.Fatalf("matching not certified after quiet applies: %v", m)
	}
	if m["degraded"].(bool) {
		t.Fatalf("matching degraded without faults: %v", m)
	}
	if n := len(m["edges"].([]any)); n != int(m["size"].(float64)) {
		t.Fatalf("edges %d != size %v", n, m["size"])
	}

	h := doJSON(t, "GET", ts.URL+"/v1/health", "", http.StatusOK)
	if len(h["shards"].([]any)) != 4 {
		t.Fatalf("health shards: %v", h)
	}
	st := doJSON(t, "GET", ts.URL+"/v1/stats", "", http.StatusOK)
	if st["totals"].(map[string]any)["Routed"].(float64) == 0 {
		t.Fatalf("stats routed nothing: %v", st)
	}
	if len(st["shards"].([]any)) != 4 {
		t.Fatalf("stats missing per-shard status: %v", st)
	}
	for _, sh := range st["shards"].([]any) {
		for _, k := range []string{"audits", "audit_failures", "recomputes"} {
			if _, ok := sh.(map[string]any)[k].(float64); !ok {
				t.Fatalf("stats shard block missing %q: %v", k, sh)
			}
		}
	}
	if !st["certified"].(bool) {
		t.Fatalf("stats not certified after quiet applies: %v", st)
	}
}

// TestServerKillRestartFailover exercises the failover endpoints: a
// killed shard flips /v1/health to 503 with the down shard named,
// /v1/matching keeps serving flagged answers, and the restart endpoint
// brings the pool back to 200.
func TestServerKillRestartFailover(t *testing.T) {
	pool, ts := testServer(t)
	g := pool.Graph()
	var ups []string
	for e := 0; e < g.M(); e++ {
		ups = append(ups, fmt.Sprintf(`{"edge":%d,"op":"insert"}`, e))
	}
	doJSON(t, "POST", ts.URL+"/v1/apply", `{"updates":[`+strings.Join(ups, ",")+`]}`, http.StatusOK)

	doJSON(t, "POST", ts.URL+"/v1/shards/2/kill", "", http.StatusOK)
	// Double kill conflicts; bad ids 404.
	doJSON(t, "POST", ts.URL+"/v1/shards/2/kill", "", http.StatusConflict)
	doJSON(t, "POST", ts.URL+"/v1/shards/9/kill", "", http.StatusNotFound)
	doJSON(t, "POST", ts.URL+"/v1/shards/x/restart", "", http.StatusNotFound)

	h := doJSON(t, "GET", ts.URL+"/v1/health", "", http.StatusServiceUnavailable)
	if !h["degraded"].(bool) {
		t.Fatalf("health not degraded after kill: %v", h)
	}
	m := doJSON(t, "GET", ts.URL+"/v1/matching", "", http.StatusOK)
	if !m["degraded"].(bool) || fmt.Sprint(m["down"]) != "[2]" {
		t.Fatalf("degraded serving not flagged: %v", m)
	}

	doJSON(t, "POST", ts.URL+"/v1/shards/2/restart", "", http.StatusOK)
	for i := 0; i < 10; i++ {
		doJSON(t, "POST", ts.URL+"/v1/apply", `{"updates":[]}`, http.StatusOK)
	}
	h = doJSON(t, "GET", ts.URL+"/v1/health", "", http.StatusOK)
	if h["degraded"].(bool) || !h["certified"].(bool) {
		t.Fatalf("pool did not heal after restart: %v", h)
	}
}

// TestServerTelemetryEndpoints drives applies through a kill/restart
// cycle and checks the observability surface end to end: /metrics is a
// valid exposition carrying the pool and per-route series, /v1/events
// shows the failover as structured records, and the route label
// normalizer keeps shard ids out of the metric namespace.
func TestServerTelemetryEndpoints(t *testing.T) {
	pool, ts, reg := testServerTel(t)
	g := pool.Graph()
	var ups []string
	for e := 0; e < g.M(); e++ {
		ups = append(ups, fmt.Sprintf(`{"edge":%d,"op":"insert"}`, e))
	}
	doJSON(t, "POST", ts.URL+"/v1/apply", `{"updates":[`+strings.Join(ups, ",")+`]}`, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/v1/shards/1/kill", "", http.StatusOK)
	doJSON(t, "POST", ts.URL+"/v1/apply", `{"updates":[]}`, http.StatusOK)
	doJSON(t, "POST", ts.URL+"/v1/shards/1/restart", "", http.StatusOK)
	for i := 0; i < 6; i++ {
		doJSON(t, "POST", ts.URL+"/v1/apply", `{"updates":[]}`, http.StatusOK)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if n, err := telemetry.ValidateExposition(strings.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("/metrics exposition invalid: (%d, %v)\n%s", n, err, text)
	}
	for _, series := range []string{
		"pool_step ", "pool_pinned_nodes ", `shard_up{shard="1"}`, "pool_apply_ns_count",
		"pool_audit_region_nodes_count",
		`http_request_ns_count{route="/v1/apply"}`,
		`http_requests_total{route="/v1/shards/{id}/kill",code="200"}`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, text)
		}
	}

	ev := doJSON(t, "GET", ts.URL+"/v1/events?n=1024", "", http.StatusOK)
	kinds := map[string]bool{}
	for _, raw := range ev["events"].([]any) {
		e := raw.(map[string]any)
		kinds[e["kind"].(string)] = true
		if e["text"].(string) == "" {
			t.Fatalf("event without rendered text: %v", e)
		}
	}
	for _, want := range []string{"shard_kill", "shard_restart", "health", "repair_region"} {
		if !kinds[want] {
			t.Fatalf("/v1/events missing %q after failover; kinds: %v", want, kinds)
		}
	}
	if ev["total"].(float64) == 0 {
		t.Fatal("event ring total is zero")
	}
	doJSON(t, "GET", ts.URL+"/v1/events?n=-1", "", http.StatusBadRequest)

	// The timeout wrapper sits inside the instrumentation, so even 404s
	// land in the "other" route bucket rather than minting series.
	if resp, err := http.Get(ts.URL + "/no/such/route"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if reg.Counter(`http_requests_total{route="other",code="404"}`, "").Value() != 1 {
		t.Fatal("unknown route not bucketed under \"other\"")
	}
}

// TestDebugHandler pins the -debugaddr mux: pprof index and a second
// /metrics both serve.
func TestDebugHandler(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	reg.Counter("engine_runs_total", "").Add(1)
	ts := httptest.NewServer(newDebugHandler(reg))
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
}

// TestServerRejectsBadInput pins the rejection paths: 400 for malformed
// JSON, unknown fields, out-of-range edges, unknown ops and client ids
// over 256 bytes; 413 for a body over 1 MiB.
func TestServerRejectsBadInput(t *testing.T) {
	pool, ts := testServer(t)
	m := pool.Graph().M()
	for _, body := range []string{
		`{`,
		`{"updates":[{"edge":0,"op":"insert"}],"extra":1}`,
		fmt.Sprintf(`{"updates":[{"edge":%d,"op":"insert"}]}`, m),
		`{"updates":[{"edge":-1,"op":"delete"}]}`,
		`{"updates":[{"edge":0,"op":"upsert"}]}`,
		fmt.Sprintf(`{"updates":[],"client":%q,"seq":1}`, strings.Repeat("c", maxClientID+1)),
	} {
		out := doJSON(t, "POST", ts.URL+"/v1/apply", body, http.StatusBadRequest)
		if out["error"] == "" {
			t.Fatalf("no error message for %q", body)
		}
	}
	// A body past the limit is refused before it is decoded: one valid
	// update repeated until the array alone exceeds 1 MiB.
	update := `{"edge":0,"op":"setweight","weight":1},`
	huge := `{"updates":[` + strings.Repeat(update, maxApplyBody/len(update)+1) + `{"edge":0,"op":"insert"}]}`
	if out := doJSON(t, "POST", ts.URL+"/v1/apply", huge, http.StatusRequestEntityTooLarge); out["error"] == "" {
		t.Fatal("no error message for the oversized body")
	}
	// The bounds are exact: a 256-byte client id is accepted.
	doJSON(t, "POST", ts.URL+"/v1/apply",
		fmt.Sprintf(`{"updates":[],"client":%q,"seq":1}`, strings.Repeat("c", maxClientID)), http.StatusOK)
	// Bad input never mutates: only the accepted apply advanced the pool.
	q := doJSON(t, "GET", ts.URL+"/v1/matching", "", http.StatusOK)
	if q["step"].(float64) != 1 {
		t.Fatalf("rejected applies advanced the pool: %v", q)
	}
}
