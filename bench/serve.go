package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"distmatch/internal/dynamic"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/shard"
)

// The serve workloads run the full stack: a distmatchd process the
// benchmark launches, loaded from this process over exactly two
// connections, one issuing applies and one issuing reads, each an open
// loop with Poisson arrivals. Both use the same server and the same
// balanced batches; serve-write makes applies the primary stream and
// serve-read makes reads the primary stream.
const (
	serveN     = 1024 // nodes per side
	serveP     = 0.004
	serveK     = 3
	serveAudit = 8 // pool audit cadence, in slots
	serveWarm  = time.Second
	serveTries = 3 // attempts per exactly-once apply
)

// mix is one serve workload's traffic.
type mix struct {
	// writes makes applies the primary stream and ends the run with them
	// in a closed loop for a quarter of the timed phase, for capacity;
	// otherwise reads are the primary stream.
	writes              bool
	applyRate, readRate float64 // open-loop arrivals per second
}

// order returns the apply and read streams as primary and secondary.
func (mx mix) order(apply, read *stream) (prim, sec *stream) {
	if mx.writes {
		return apply, read
	}
	return read, apply
}

// The apply rate of serve-write sits at about a third of one connection's
// capacity: at the queueing knee the apply latency did not repeat between
// runs.
func runServeWrite(cfg config) (*result, error) {
	return runServe(cfg, mix{writes: true, applyRate: 100, readRate: 50})
}

// serve-read was sized at 800 reads/s and 50 applies/s, but its read
// latency then spread 20–40% between runs: each pool audit holds both
// CPUs for about 20 ms, and the reads queued behind it set the mean and
// the tail.
func runServeRead(cfg config) (*result, error) {
	return runServe(cfg, mix{applyRate: 20, readRate: 400})
}

// runServe measures the primary stream's open-loop latency while the
// secondary stream keeps its rate. On serve-read, ops_per_s is the reads
// served per second of their own service time.
// Traced runs skip the capacity phase, so the scraped server counters
// cover one traffic mix.
func runServe(cfg config, mx mix) (*result, error) {
	res := newResult()
	seed := rng.ForkSeed(cfg.seed, 201)
	var g *graph.Graph
	var genMS []float64
	for i := 0; i < cfg.setupReps; i++ {
		t0 := time.Now()
		g = gen.BipartiteGnp(rng.New(seed), serveN, serveN, serveP)
		genMS = append(genMS, msSince(t0))
	}

	applyC, readC := newClient(), newClient()
	defer applyC.CloseIdleConnections()
	defer readC.CloseIdleConnections()
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setup []float64
	for i := 0; i < cfg.setupReps; i++ {
		if srv != nil {
			srv.stop()
			readC.CloseIdleConnections()
		}
		var secs float64
		var err error
		if srv, secs, err = startServer(cfg.server, seed, readC); err != nil {
			return nil, err
		}
		setup = append(setup, secs)
	}
	var st statsJSON
	if err := getJSON(readC, srv.base+"/v1/stats", &st); err != nil {
		return nil, err
	}
	if st.Nodes != g.N() || st.Edges != g.M() {
		return nil, fmt.Errorf("server slab has %d nodes and %d edges, the benchmark's %d and %d", st.Nodes, st.Edges, g.N(), g.M())
	}

	mir := newMirror(g)
	ap := &applier{c: applyC, url: srv.base + "/v1/apply", mir: mir, r: rng.New(rng.ForkSeed(cfg.seed, 202)), retried: newResult()}
	rd := &reader{c: readC, url: srv.base + "/v1/matching", g: g}
	for mir.dead() < g.M()/32 {
		if err := ap.send(mir.churn(ap.r, 32, 0)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	gaps := rng.New(rng.ForkSeed(cfg.seed, 203))
	// phase runs the primary stream open-loop for openFor and then
	// closed-loop for closedFor, and the secondary stream open-loop
	// throughout, on one goroutine each, while a third checks every
	// matching read.
	phase := func(tr *tracer, openFor, closedFor time.Duration) (applyS, readS *stream) {
		applyS = &stream{name: "apply", op: ap.apply, rate: mx.applyRate, gaps: rng.New(gaps.Uint64()), tr: tr, res: newResult()}
		readS = &stream{name: "read", op: rd.read, rate: mx.readRate, gaps: rng.New(gaps.Uint64()), tr: tr, res: newResult()}
		prim, sec := mx.order(applyS, readS)
		ap.st, rd.sizes = applyStats{}, nil
		checked := rd.startChecking()
		t0 := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			prim.open(t0, t0.Add(openFor))
			if closedFor > 0 {
				prim.closedLoop(t0.Add(openFor + closedFor))
			}
		}()
		go func() {
			defer wg.Done()
			sec.open(t0, t0.Add(openFor+closedFor))
		}()
		wg.Wait()
		res.merge(applyS.res)
		res.merge(readS.res)
		res.merge(checked())
		return applyS, readS
	}
	phase(nil, serveWarm, 0)

	tr := newTracer(cfg.traced)
	var before snapshot
	var err error
	if cfg.traced {
		if before, err = scrape(readC, srv.base); err != nil {
			return nil, err
		}
	}
	var closedFor time.Duration
	if mx.writes && !cfg.traced {
		closedFor = cfg.dur / 4
	}
	applyS, readS := phase(tr, cfg.dur-closedFor, closedFor)
	prim, sec := mx.order(applyS, readS)
	var after snapshot
	if cfg.traced {
		if after, err = scrape(readC, srv.base); err != nil {
			return nil, err
		}
	}

	// The load has stopped. Empty batches advance the slot clock, without
	// changing the graph, up to the next pool audit, so match_ratio is
	// taken on a matching in the same audit phase every run. It must be
	// valid on the mirror's live subgraph, and (1−1/k)-approximate when
	// certified.
	for i := 0; i < serveAudit; i++ {
		rep, _, err := ap.post(nil)
		if err != nil {
			return nil, fmt.Errorf("quiesce: %w", err)
		}
		if rep.Audited {
			break
		}
	}
	res.attempted++
	body, err := get(readC, srv.base+"/v1/matching")
	if err != nil {
		return nil, err
	}
	final, err := decodeMatching(body)
	if err != nil {
		return nil, err
	}
	if err := checkTriples(g, final.Size, final.Edges); err != nil {
		res.fail("final matching: %v", err)
	}
	for _, t := range final.Edges {
		if t[0] >= 0 && t[0] < g.M() && !mir.live[t[0]] {
			res.fail("final matching uses dead edge %d", t[0])
			break
		}
	}
	opt := mir.opt()
	if final.Certified && !approxOK(final.Size, opt, serveK) {
		res.fail("final certified |M| = %d below (1-1/%d) of OPT = %d", final.Size, serveK, opt)
	}

	res.merge(ap.retried)
	res.mean = mean(prim.lat)
	res.e2e["setup_s"] = median(setup)
	res.e2e["mean_ms"] = res.mean
	res.e2e["tail_ms"] = percentile(prim.lat, 0.99)
	served := prim.svc
	if mx.writes {
		served = prim.closed
	}
	res.e2e["ops_per_s"] = float64(len(served)) / sum(served) * 1e3
	res.e2e["match_ratio"] = float64(final.Size) / float64(opt)
	res.e2e["certified_frac"] = float64(ap.st.certified) / float64(len(ap.st.plain)+len(ap.st.audited))
	if res.e2e["mem_mb"], err = vmHWM(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if cfg.traced {
		res.spans = tr.all()
		res.layers = layerMetrics(after.since(before), measured{
			seconds:   cfg.dur.Seconds(),
			plainMS:   ap.st.plain,
			auditedMS: ap.st.audited,
			clientMS:  applyS.lat,
			readBytes: rd.sizes,
			lagMS:     prim.lag,
			sideMS:    sec.lat,
			genMS:     median(genMS),
		})
	}
	return res, nil
}

// stream issues one kind of request on one connection and times it.
type stream struct {
	name string
	op   func() error
	rate float64 // open-loop arrivals per second
	gaps *rng.Rand
	tr   *tracer
	res  *result

	lat    []float64 // open loop: latency as issue defines it, ms
	lag    []float64 // open loop: generator lateness, ms
	svc    []float64 // open loop: send to response, ms
	closed []float64 // closed loop: send to response, ms
}

// open issues requests at Poisson arrivals from t0 until end.
func (s *stream) open(t0, end time.Time) {
	due, free := t0, t0
	for {
		due = due.Add(time.Duration(s.gaps.ExpFloat64() / s.rate * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		free = s.issue(due, free, true)
	}
}

// closedLoop issues requests back to back until end.
func (s *stream) closedLoop(end time.Time) {
	for now := time.Now(); now.Before(end); now = time.Now() {
		s.issue(now, now, false)
	}
}

// issue sends one request, due at due on a connection free since free,
// and returns when the connection is free again. An open-loop request's
// latency counts the wait for the connection from its due time, so a
// stall is charged to the requests it delays, plus its own request time.
// The generator's own lateness beyond that, such as a sleep that
// overshot, is reported as lag and not charged: the runtime's timers
// wake up to a millisecond late, as long as a read takes.
func (s *stream) issue(due, free time.Time, open bool) time.Time {
	ready := due // when the request could have been sent
	if free.After(due) {
		ready = free
	}
	send := time.Now()
	err := s.op()
	done := time.Now()
	s.res.attempted++
	if err != nil {
		s.res.fail("%s: %v", s.name, err)
		return done
	}
	if open {
		s.lat = append(s.lat, msBetween(due, ready)+msBetween(send, done))
		s.lag = append(s.lag, msBetween(ready, send))
		s.svc = append(s.svc, msBetween(send, done))
	} else {
		s.closed = append(s.closed, msBetween(send, done))
	}
	if id := s.tr.add(s.name, due, done, 0); open {
		s.tr.add("queue", due, ready, id)
		s.tr.add("lag", ready, send, id)
		s.tr.add("request", send, done, id)
	}
	return done
}

// applier sends balanced churn batches through POST /v1/apply, exactly
// once each: a failed attempt is retried with the same sequence number,
// which the server deduplicates.
type applier struct {
	c   *http.Client
	url string
	mir *mirror
	r   *rng.Rand
	seq uint64
	st  applyStats
	// retried counts attempts that failed and were retried; each is an
	// attempted operation that failed.
	retried *result
}

// applyStats is what the applier saw in one phase.
type applyStats struct {
	plain, audited []float64 // request times of slots without and with a pool audit, ms
	certified      int       // slots whose audit certified the matching
}

// apply sends one batch of 2, 4, 6 or 8 updates, half deletes and half
// inserts, so the live-edge count stays constant.
func (a *applier) apply() error {
	n := 1 + a.r.Intn(4)
	return a.send(a.mir.churn(a.r, n, n))
}

// send delivers b and records its slot in the phase's stats.
func (a *applier) send(b dynamic.Batch) error {
	rep, ms, err := a.post(b)
	if err != nil {
		return err
	}
	if rep.Audited {
		a.st.audited = append(a.st.audited, ms)
	} else {
		a.st.plain = append(a.st.plain, ms)
	}
	if rep.Audited && rep.CertificateOK {
		a.st.certified++
	}
	return nil
}

// post delivers b exactly once and returns the server's report and the
// successful attempt's request time in ms.
func (a *applier) post(b dynamic.Batch) (reportJSON, float64, error) {
	a.seq++
	req := applyRequest{Client: "bench", Seq: a.seq, Updates: []updateJSON{}}
	for _, u := range b {
		req.Updates = append(req.Updates, updateJSON{u.Edge, u.Op.String()})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return reportJSON{}, 0, err
	}
	for try := 0; try < serveTries; try++ {
		if try > 0 {
			a.retried.attempted++
			a.retried.fail("apply seq %d attempt %d: %v", a.seq, try, err)
		}
		t0 := time.Now()
		var rep reportJSON
		if err = postJSON(a.c, a.url, body, &rep); err != nil {
			continue
		}
		ms := msSince(t0)
		switch {
		case rep.Seq != a.seq:
			return rep, ms, fmt.Errorf("apply seq %d answered as seq %d", a.seq, rep.Seq)
		case rep.Duplicate && try == 0:
			return rep, ms, fmt.Errorf("apply seq %d reported duplicate on its first attempt", a.seq)
		case rep.Degraded:
			return rep, ms, errors.New("pool degraded with no fault injected")
		}
		return rep, ms, nil
	}
	return reportJSON{}, 0, fmt.Errorf("apply seq %d: %d attempts failed, last: %w", a.seq, serveTries, err)
}

// reader fetches GET /v1/matching. A separate goroutine checks each
// matching received, so checking never delays the next request.
type reader struct {
	c      *http.Client
	url    string
	g      *graph.Graph
	bodies chan *bytes.Buffer
	sizes  []float64 // response sizes, appended by the checker
}

// readBacklog bounds the bodies awaiting their check. It is sized to
// absorb a pool audit, during which the checker competes with the server
// for the CPUs; when full, reads wait for the checker.
const readBacklog = 4096

// bodyPool recycles read bodies from the checker back to the reader, so
// reading allocates little and the collector rarely stalls the reader.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (rd *reader) read() error {
	resp, err := rd.c.Get(rd.url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", rd.url, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	rd.bodies <- buf
	return nil
}

// startChecking starts the checker for one phase. The returned function
// ends the phase: it waits until every body read has been checked and
// returns the failed checks.
func (rd *reader) startChecking() func() *result {
	rd.bodies = make(chan *bytes.Buffer, readBacklog)
	res := newResult()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for buf := range rd.bodies {
			rd.sizes = append(rd.sizes, float64(buf.Len()))
			if err := checkMatchingBody(rd.g, buf.Bytes()); err != nil {
				res.fail("read: %v", err)
			}
			bodyPool.Put(buf)
		}
	}()
	return func() *result {
		close(rd.bodies)
		<-done
		return res
	}
}

func checkMatchingBody(g *graph.Graph, body []byte) error {
	m, err := decodeMatching(body)
	if err != nil {
		return err
	}
	if m.Degraded {
		return errors.New("matching degraded with no fault injected")
	}
	return checkTriples(g, m.Size, m.Edges)
}

// The wire shapes of distmatchd's API that the benchmark uses.
type applyRequest struct {
	Client  string       `json:"client"`
	Seq     uint64       `json:"seq"`
	Updates []updateJSON `json:"updates"`
}

type updateJSON struct {
	Edge int    `json:"edge"`
	Op   string `json:"op"`
}

type reportJSON struct {
	Seq           uint64 `json:"seq"`
	Duplicate     bool   `json:"duplicate"`
	Audited       bool   `json:"audited"`
	CertificateOK bool   `json:"certificate_ok"`
	Degraded      bool   `json:"degraded"`
}

type matchingJSON struct {
	Size      int      `json:"size"`
	Edges     [][3]int `json:"-"`
	Degraded  bool     `json:"degraded"`
	Certified bool     `json:"certified"`
}

// decodeMatching decodes a GET /v1/matching body. The edge list, most of
// the body, is scanned by hand: through encoding/json's reflection,
// checking a read cost as much CPU as serving it, and the checker shares
// the host's two CPUs with the server.
func decodeMatching(body []byte) (matchingJSON, error) {
	var w struct {
		matchingJSON
		Edges json.RawMessage `json:"edges"`
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return w.matchingJSON, fmt.Errorf("matching body: %w", err)
	}
	m := w.matchingJSON
	var t [3]int
	k, in := 0, false
	for _, c := range w.Edges {
		switch {
		case c >= '0' && c <= '9':
			if !in {
				t[k], in = 0, true
			}
			t[k] = 10*t[k] + int(c-'0')
		case c == ',' || c == ']':
			if in {
				k, in = k+1, false
			}
			if c == ']' && k == 3 {
				m.Edges = append(m.Edges, t)
				k = 0
			}
		case c != '[' && c != ' ' && c != '\n':
			return m, fmt.Errorf("matching body: unexpected %q in edges", c)
		}
	}
	return m, nil
}

type statsJSON struct {
	Totals shard.Stats `json:"totals"`
	Nodes  int         `json:"nodes"`
	Edges  int         `json:"edges"`
}

// server is one distmatchd process.
type server struct {
	cmd    *exec.Cmd
	base   string
	out    bytes.Buffer // its stdout and stderr; read only after it exits
	exited chan struct{}
}

// startServer launches distmatchd on a free local port and returns it
// with its set-up time: from process start to the first 200 on
// /v1/health.
func startServer(bin string, seed uint64, c *http.Client) (*server, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr,
		"-nx", strconv.Itoa(serveN), "-ny", strconv.Itoa(serveN), "-p", strconv.FormatFloat(serveP, 'g', -1, 64),
		"-shards", "4", "-k", strconv.Itoa(serveK), "-audit", strconv.Itoa(serveAudit), "-full", "-accesslog=false",
		"-seed", strconv.FormatUint(seed, 10))
	s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
	killWithParent(s.cmd)
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start distmatchd: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	for deadline := t0.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if resp, err := c.Get(s.base + "/v1/health"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0).Seconds(), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("distmatchd exited during start-up: %s", s.out.String())
		default:
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("distmatchd not healthy after 60s: %s", s.out.String())
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	return readResponse(resp)
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func postJSON(c *http.Client, url string, body []byte, v any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	b, err := readResponse(resp)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func readResponse(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// scrape reads the server's /metrics and pool totals.
func scrape(c *http.Client, base string) (snapshot, error) {
	body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	s, err := parseExposition(string(body))
	if err != nil {
		return nil, err
	}
	var st statsJSON
	if err := getJSON(c, base+"/v1/stats", &st); err != nil {
		return nil, err
	}
	s.addTotals(st.Totals)
	return s, nil
}

func msSince(t time.Time) float64 { return msBetween(t, time.Now()) }

func msBetween(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1e3 }
