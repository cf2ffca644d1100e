package main

// The http workload: a child toprrd on loopback, driven in a closed loop
// by one client over one keep-alive connection. Each request is sent when
// the previous response has been decoded, and its latency runs from send
// to decoded response.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"toprr/internal/geom"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

const datasetName = "market"

// traceEvery records spans for one request in this many of the traced
// half. Their replays run after the window, and replaying every request
// made the traced run last more than twice its window.
const traceEvery = 4

// Wire forms of the toprrd routes the workload calls.
type queryJSON struct {
	K  int       `json:"k"`
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

type resultJSON struct {
	Constraints []struct {
		A []float64 `json:"a"`
		B float64   `json:"b"`
	} `json:"constraints"`
}

type solveResp struct {
	Result resultJSON `json:"result"`
}

type approxResp struct {
	Vertices []struct {
		W  []float64 `json:"w"`
		Lo float64   `json:"lo"`
		Hi float64   `json:"hi"`
	} `json:"vertices"`
}

type batchResp struct {
	Results []resultJSON `json:"results"`
}

func (r resultJSON) halfspaces() []geom.Halfspace {
	hs := make([]geom.Halfspace, len(r.Constraints))
	for i, c := range r.Constraints {
		hs[i] = geom.Halfspace{A: vec.Vector(c.A), B: c.B}
	}
	return hs
}

// answer is one kept HTTP answer for the gate.
type answer struct {
	kind    opKind
	queries []int
	results [][]geom.Halfspace // solve, batch
	approx  approxResp
}

// tracedReq is one request of the traced half, replayed after the
// window so the replica engine holds no CPU or cache state while the
// daemon is timed.
type tracedReq struct {
	o         op
	req, call uint64
}

type httpload struct {
	base
	cmd    *exec.Cmd
	logs   chan struct{} // closed when the daemon's stderr reaches EOF
	url    string
	client *http.Client

	answers   []answer
	decode    samples
	respBytes int64
	responses int

	traced  []tracedReq
	c0, c1  engineCounters
	replica *toprr.Engine
}

func newHTTP(cfg *runConfig) *httpload {
	return &httpload{base: base{cfg: cfg, sp: cfg.sp}, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// close stops the daemon and waits for it to exit.
func (h *httpload) close() {
	if h.replica != nil {
		h.replica.Close()
		h.replica = nil
	}
	if h.cmd == nil {
		return
	}
	h.client.CloseIdleConnections()
	_ = h.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-h.logs:
	case <-time.After(20 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.logs
	}
	_ = h.cmd.Wait()
	h.cmd = nil
}

// start launches toprrd with its default flags on an ephemeral loopback
// port and returns once /v1/healthz answers.
func (h *httpload) start() error {
	cmd := exec.Command(h.cfg.toprrd, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start toprrd: %w", err)
	}
	h.cmd, h.logs = cmd, make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		defer close(h.logs)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && strings.HasPrefix(line, "toprrd: serving") && i >= 0 {
				addr <- strings.TrimSpace(line[i+4:])
				sent = true
			} else if !sent {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		h.url = "http://" + a
	case <-h.logs:
		h.close()
		return fmt.Errorf("toprrd exited before serving")
	case <-time.After(120 * time.Second):
		h.close()
		return fmt.Errorf("toprrd did not start serving within 120s")
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := h.client.Get(h.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	h.close()
	return fmt.Errorf("toprrd at %s did not pass /v1/healthz within 60s", h.url)
}

// post sends one JSON request and returns the response body.
func (h *httpload) post(path string, body any) ([]byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Post(h.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (h *httpload) wire(i int) queryJSON {
	q := h.in.queries[i]
	return queryJSON{K: q.k, Lo: q.lo, Hi: q.hi}
}

// setup starts a daemon, creates the market tenant with
// POST /v1/datasets and warms every pooled query on both solve routes.
func (h *httpload) setup(ctx context.Context, i int) (time.Duration, error) {
	h.close()
	start := time.Now()
	h.in = genInputs(h.sp, h.cfg.seed)
	h.st = newStream(h.sp, h.cfg.seed, len(h.in.queries), 0)
	if err := h.start(); err != nil {
		return 0, err
	}
	pts := make([][]float64, len(h.in.pts))
	for j, p := range h.in.pts {
		pts[j] = p
	}
	body, err := h.post("/v1/datasets", map[string]any{"name": datasetName, "points": pts})
	if err != nil {
		return 0, fmt.Errorf("create dataset: %w", err)
	}
	var created struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		return 0, fmt.Errorf("decode create: %w", err)
	}
	h.shards = created.Shards
	for j := range h.in.queries {
		for _, route := range []string{"/solve", "/solve?approx=1"} {
			if _, err := h.post("/v1/datasets/"+datasetName+route, h.wire(j)); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return time.Since(start), nil
}

// measure runs the closed loop (base.loop) and reads the daemon's
// counters at both ends of the traced half.
func (h *httpload) measure(ctx context.Context) error {
	var err error
	startTracing := func() error {
		h.c0, err = readDaemon(h.client, h.url, datasetName)
		return err
	}
	if err := h.loop(startTracing, func(o op) error { h.send(o); return nil }); err != nil || h.tr == nil {
		return err
	}
	h.c1, err = readDaemon(h.client, h.url, datasetName)
	return err
}

// send issues one request, decodes its answer and records it.
func (h *httpload) send(o op) {
	sent := time.Now()
	var path string
	var body any
	switch o.kind {
	case kindSolve:
		path, body = "/solve", h.wire(o.query)
	case kindApprox:
		path, body = "/solve?approx=1", h.wire(o.query)
	case kindBatch:
		qs := make([]queryJSON, len(o.batch))
		for j, qi := range o.batch {
			qs[j] = h.wire(qi)
		}
		path, body = "/batch", map[string]any{"queries": qs}
	}
	raw, err := h.post("/v1/datasets/"+datasetName+path, body)
	a := answer{kind: o.kind}
	decStart := time.Now()
	if err == nil {
		switch o.kind {
		case kindSolve:
			var r solveResp
			err = json.Unmarshal(raw, &r)
			a.queries, a.results = []int{o.query}, [][]geom.Halfspace{r.Result.halfspaces()}
		case kindApprox:
			err = json.Unmarshal(raw, &a.approx)
			a.queries = []int{o.query}
		case kindBatch:
			var r batchResp
			err = json.Unmarshal(raw, &r)
			a.queries = o.batch
			for _, res := range r.Results {
				a.results = append(a.results, res.halfspaces())
			}
		}
	}
	decoded := time.Now()

	h.attempted++
	if err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "toprrbench: %s: %v\n", o.kind, err)
		return
	}
	h.lat[o.kind] = append(h.lat[o.kind], decoded.Sub(sent))
	if h.chk.want(o.kind) {
		h.chk.count[o.kind]++
		h.answers = append(h.answers, a)
	}
	if h.tr == nil {
		return
	}
	if o.kind == kindSolve {
		h.solveHalf(decoded.Sub(sent), h.tracing)
	}
	if !h.tracing || h.attempted%traceEvery != 0 {
		return
	}
	h.decode = append(h.decode, decoded.Sub(decStart))
	h.respBytes += int64(len(raw))
	h.responses++
	req, call := h.tr.newID(), h.tr.newID()
	h.tr.add(call, req, req, "http."+o.kind.String(), sent, decoded)
	h.tr.add(h.tr.newID(), req, req, "http.decode", decStart, decoded)
	h.tr.add(req, 0, req, "op."+o.kind.String(), sent, decoded)
	h.traced = append(h.traced, tracedReq{o: o, req: req, call: call})
}

// warmReplica opens an in-process engine over the same points and warms
// it like the daemon, for the gate and the traced replays.
func (h *httpload) warmReplica(ctx context.Context) error {
	eng, err := toprr.OpenEngine(h.in.pts)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	h.replica = eng
	for _, q := range h.in.queries {
		if _, err := eng.SolveAt(ctx, eng.Snapshot(), q.q); err != nil {
			return fmt.Errorf("replica warm-up: %w", err)
		}
	}
	return nil
}

// replay re-runs every traced request's layers in-process: the solve
// on the replica engine under the HTTP span (so the HTTP span's self
// time is the HTTP and JSON overhead), the prefilter and assembly under
// the replica solve, and a cold top-k at the query's first vertex.
func (h *httpload) replay(ctx context.Context) error {
	for _, t := range h.traced {
		snap := h.replica.Snapshot()
		for j, qi := range t.o.batchQueries() {
			q := h.in.queries[qi].q
			if t.o.kind == kindSolve && j == 0 {
				var res *toprr.Result
				var err error
				id := h.tr.newID()
				start := time.Now()
				res, err = h.replica.SolveAt(ctx, snap, q)
				h.tr.add(id, t.call, t.req, "engine.solve", start, time.Now())
				if err != nil {
					return fmt.Errorf("replica solve: %w", err)
				}
				h.tr.replaySolve(id, t.req, snap, q, res)
				h.counts.solves++
				h.counts.solve.add(readSolve(res))
				continue
			}
			h.tr.scoreCold(t.req, snap, q.WR.VertexPoints()[0], q.K)
		}
	}
	return nil
}

// batchQueries lists the pooled queries an HTTP op names.
func (o op) batchQueries() []int {
	if o.kind == kindBatch {
		return o.batch
	}
	return []int{o.query}
}

// finish runs the traced replays and checks every kept answer against
// the same points in-process.
func (h *httpload) finish(ctx context.Context) []string {
	var bad []string
	if err := h.warmReplica(ctx); err != nil {
		return []string{err.Error()}
	}
	if h.tr != nil {
		if err := h.replay(ctx); err != nil {
			return []string{err.Error()}
		}
		h.counts.engine = h.c1.sub(h.c0)
	}
	snap := h.replica.Snapshot()
	for _, a := range h.answers {
		if err := h.checkAnswer(ctx, snap, a); err != nil {
			bad = append(bad, fmt.Sprintf("http %s: %v", a.kind, err))
		}
	}
	return bad
}

func (h *httpload) checkAnswer(ctx context.Context, snap toprr.Snapshot, a answer) error {
	if a.kind == kindApprox {
		q := h.in.queries[a.queries[0]]
		if len(a.approx.Vertices) != len(q.q.WR.VertexPoints()) {
			return fmt.Errorf("%d approx vertices for a %d-vertex region", len(a.approx.Vertices), len(q.q.WR.VertexPoints()))
		}
		for _, v := range a.approx.Vertices {
			if err := checkInterval(snap.Scorer, v.W, q.k, v.Lo, v.Hi); err != nil {
				return err
			}
		}
		return nil
	}
	if len(a.results) != len(a.queries) {
		return fmt.Errorf("%d results for %d queries", len(a.results), len(a.queries))
	}
	for j, qi := range a.queries {
		if err := checkSolve(ctx, snap.Scorer.Points(), h.in.queries[qi].q, a.results[j]); err != nil {
			return err
		}
	}
	return nil
}

// report adds the http traced run's own metrics to the shared ones.
func (h *httpload) report(rep *report) error {
	rep.note("requests sent: %d", h.attempted)
	if err := h.base.report(rep); err != nil || h.tr == nil {
		return err
	}
	self := h.tr.selfTimes()
	rep.put("http.overhead_ms", ms(medianDur(self["http.solve"])), "ms")
	rep.put("http.decode_us", us(medianDur(self["http.decode"])), "us")
	rep.put("http.resp_kb", ratio(float64(h.respBytes)/1024, float64(h.responses)), "KB")
	return nil
}
