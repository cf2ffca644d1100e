package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"toprr/internal/dataset"
	"toprr/internal/geom"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// server is the HTTP front end over a dataset registry. Every dataset
// route acquires its tenant for the duration of the request — pinning
// it against idle eviction — and every query pins the dataset
// generation current when it arrives, so a request is never torn across
// an Apply landing mid-solve.
type server struct {
	reg      *toprr.Registry
	timeout  time.Duration // per-request deadline (0 = none; watch streams are exempt)
	maxBody  int64         // request-body cap in bytes
	start    time.Time
	draining chan struct{} // closed on shutdown: watch streams say bye and end
}

// defaultDataset is the tenant the daemon creates at boot from
// -data/-dist.
const defaultDataset = "default"

// newServer wires the /v1 API over a registry.
func newServer(reg *toprr.Registry, timeout time.Duration, maxBody int64) *server {
	return &server{reg: reg, timeout: timeout, maxBody: maxBody, start: time.Now(), draining: make(chan struct{})}
}

// drainWatches ends every open watch stream with a terminal event.
// http.Server.Shutdown waits for in-flight requests, and an SSE stream
// never ends on its own — register this via RegisterOnShutdown so
// graceful shutdown doesn't burn the whole drain budget on watchers.
func (s *server) drainWatches() { close(s.draining) }

// datasetsPrefix roots the per-dataset route tree.
const datasetsPrefix = "/v1/datasets"

// ServeHTTP routes by hand (the route set is tiny and the error
// contract strict): unknown routes get a JSON 404 and wrong methods a
// JSON 405, never the mux defaults.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/v1/healthz":
		s.handleHealthz(w, r)
	case path == "/v1/stats":
		s.handleStats(w, r)
	case path == datasetsPrefix:
		s.handleDatasets(w, r)
	case strings.HasPrefix(path, datasetsPrefix+"/"):
		name, sub, _ := strings.Cut(path[len(datasetsPrefix)+1:], "/")
		if err := toprr.ValidateDatasetName(name); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		switch sub {
		case "":
			s.handleDatasetDelete(w, r, name)
		case "solve":
			s.withDataset(w, r, name, s.handleSolve)
		case "batch":
			s.withDataset(w, r, name, s.handleBatch)
		case "ops":
			s.withDataset(w, r, name, s.handleOps)
		case "watch":
			s.withDataset(w, r, name, s.handleWatch)
		case "stats":
			s.withDataset(w, r, name, func(w http.ResponseWriter, r *http.Request, eng *toprr.Engine) {
				s.handleDatasetStats(w, r, name, eng)
			})
		default:
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown route %s", r.URL.Path))
		}
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown route %s", r.URL.Path))
	}
}

// withDataset acquires the named tenant around fn, mapping registry
// errors: unknown dataset 404, closing registry 503.
func (s *server) withDataset(w http.ResponseWriter, r *http.Request, name string, fn func(http.ResponseWriter, *http.Request, *toprr.Engine)) {
	eng, release, err := s.reg.Acquire(name)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, toprr.ErrUnknownDataset):
			code = http.StatusNotFound
		case errors.Is(err, toprr.ErrRegistryClosed):
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	defer release()
	fn(w, r, eng)
}

// requestCtx derives the request context bounded by the server's
// per-request deadline.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// decodeBody decodes a JSON request body under the size cap (-max-body)
// so one oversized POST cannot buffer the daemon into the ground;
// decode failures past the cap surface as ordinary 400s.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
}

// errorJSON is every error response's body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// solveStatus maps a solve error to an HTTP status: request deadlines
// become 504, client disconnects 503, everything else a server error.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleHealthz answers GET /v1/healthz: a cheap liveness probe that
// touches no dataset (so it stays green while tenants page in and out)
// and reports build info — daemon version and Go toolchain — so a fleet
// operator can spot version skew from the probe alone.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	infos := s.reg.List()
	open := 0
	for _, info := range infos {
		if info.Open {
			open++
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Status       string  `json:"status"`
		Version      string  `json:"version"`
		GoVersion    string  `json:"go_version"`
		Datasets     int     `json:"datasets"`
		OpenDatasets int     `json:"open_datasets"`
		UptimeMS     float64 `json:"uptime_ms"`
	}{"ok", version, runtime.Version(), len(infos), open, float64(time.Since(s.start)) / float64(time.Millisecond)})
}

// queryJSON is the wire form of one TopRR query: rank threshold k and
// the preference box [lo, hi] in the (d-1)-dimensional preference
// space.
type queryJSON struct {
	K       int       `json:"k"`
	Lo      []float64 `json:"lo"`
	Hi      []float64 `json:"hi"`
	Alg     string    `json:"alg,omitempty"`
	Workers int       `json:"workers,omitempty"`
}

// parseAlg maps the wire algorithm name to the solver constant.
func parseAlg(name string) (toprr.Algorithm, error) {
	switch strings.ToUpper(name) {
	case "", "TAS*", "TASSTAR", "TAS-STAR":
		return toprr.TASStar, nil
	case "TAS":
		return toprr.TAS, nil
	case "PAC":
		return toprr.PAC, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

// prefBox builds the preference region, converting PrefBox's panic on an
// empty region into an error.
func prefBox(lo, hi []float64) (p *geom.Polytope, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("invalid preference box: %v", r)
		}
	}()
	return toprr.PrefBox(vec.Vector(lo), vec.Vector(hi)), nil
}

// buildQuery validates a wire query against a pinned snapshot. A
// request's worker count is clamped to GOMAXPROCS, as the engine's
// default is: each worker is a goroutine per solve, and more of them
// than CPUs buys nothing.
func buildQuery(snap toprr.Snapshot, qj queryJSON) (toprr.Query, error) {
	m := snap.Scorer.PrefDim()
	if len(qj.Lo) != m || len(qj.Hi) != m {
		return toprr.Query{}, fmt.Errorf("lo/hi need %d components (d-1), got %d/%d", m, len(qj.Lo), len(qj.Hi))
	}
	if qj.K <= 0 || qj.K > snap.Scorer.Len() {
		return toprr.Query{}, fmt.Errorf("k=%d out of range for %d options", qj.K, snap.Scorer.Len())
	}
	if qj.Workers < 0 {
		return toprr.Query{}, fmt.Errorf("workers=%d must be >= 0", qj.Workers)
	}
	for j, lo := range qj.Lo {
		if hi := qj.Hi[j]; math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return toprr.Query{}, fmt.Errorf("lo/hi component %d is not finite (%v, %v)", j, lo, hi)
		}
	}
	wr, err := prefBox(qj.Lo, qj.Hi)
	if err != nil {
		return toprr.Query{}, err
	}
	q := toprr.Query{K: qj.K, WR: wr}
	if qj.Alg != "" || qj.Workers > 0 {
		alg, err := parseAlg(qj.Alg)
		if err != nil {
			return toprr.Query{}, err
		}
		q.Options = &toprr.Options{Alg: alg, Workers: min(qj.Workers, runtime.GOMAXPROCS(0))}
	}
	return q, nil
}

// constraintJSON is one halfspace a·o >= b of oR's H-representation.
type constraintJSON struct {
	A []float64 `json:"a"`
	B float64   `json:"b"`
}

// resultJSON is the wire form of one TopRR result: the exact
// H-representation of oR, its explicit vertices when enumerated within
// budget, and the solve instrumentation.
type resultJSON struct {
	Constraints []constraintJSON `json:"constraints"`
	Vertices    [][]float64      `json:"vertices,omitempty"`
	Stats       solveStatsJSON   `json:"stats"`
}

type solveStatsJSON struct {
	InputOptions    int     `json:"input_options"`
	FilteredOptions int     `json:"filtered_options"`
	Regions         int     `json:"regions"`
	Splits          int     `json:"splits"`
	VallSize        int     `json:"vall_size"`
	TopKQueries     int     `json:"topk_queries"`
	TopKMisses      int     `json:"topk_misses"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

func resultToJSON(res *toprr.Result) resultJSON {
	out := resultJSON{
		Constraints: make([]constraintJSON, len(res.ORConstraints)),
		Stats: solveStatsJSON{
			InputOptions:    res.Stats.InputOptions,
			FilteredOptions: res.Stats.FilteredOptions,
			Regions:         res.Stats.Regions,
			Splits:          res.Stats.Splits,
			VallSize:        res.Stats.VallSize,
			TopKQueries:     res.Stats.TopKQueries,
			TopKMisses:      res.Stats.TopKMisses,
			ElapsedMS:       float64(res.Stats.Elapsed) / float64(time.Millisecond),
		},
	}
	for i, h := range res.ORConstraints {
		out.Constraints[i] = constraintJSON{A: h.A, B: h.B}
	}
	if res.OR != nil {
		for _, v := range res.OR.VertexPoints() {
			out.Vertices = append(out.Vertices, v)
		}
	}
	return out
}

// handleSolve answers POST .../solve: one query against the generation
// current at arrival.
func (s *server) handleSolve(w http.ResponseWriter, r *http.Request, eng *toprr.Engine) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var qj queryJSON
	if err := s.decodeBody(w, r, &qj); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	snap := eng.Snapshot()
	q, err := buildQuery(snap, qj)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("approx") == "1" {
		s.handleApproxSolve(w, eng, snap, q)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := eng.SolveAt(ctx, snap, q)
	if err != nil {
		writeErr(w, solveStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Generation uint64     `json:"generation"`
		Result     resultJSON `json:"result"`
	}{uint64(snap.Gen), resultToJSON(res)})
}

// approxVertexJSON is one preference vertex's TopK(w) interval from the
// sketch tier: the exact k-th score lies in [lo, hi]; certified reports
// the interval came from sketch bounds alone (an uncertified vertex
// fell back to the exact plane, so its interval is the exact score).
type approxVertexJSON struct {
	W         []float64 `json:"w"`
	Lo        float64   `json:"lo"`
	Hi        float64   `json:"hi"`
	Certified bool      `json:"certified"`
}

// handleApproxSolve answers POST .../solve?approx=1: instead of the
// exact region, it bounds TopK(w) at every vertex of the query region
// from the engine's sketch tier — microseconds instead of a solve, with
// automatic exact fallback per vertex.
func (s *server) handleApproxSolve(w http.ResponseWriter, eng *toprr.Engine, snap toprr.Snapshot, q toprr.Query) {
	verts := q.WR.VertexPoints()
	out := make([]approxVertexJSON, 0, len(verts))
	certified := 0
	for _, v := range verts {
		est, err := eng.ApproxRank(v, q.K)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if est.Certified {
			certified++
		}
		out = append(out, approxVertexJSON{W: v, Lo: est.Lo, Hi: est.Hi, Certified: est.Certified})
	}
	writeJSON(w, http.StatusOK, struct {
		Generation uint64             `json:"generation"`
		Approx     bool               `json:"approx"`
		K          int                `json:"k"`
		Vertices   []approxVertexJSON `json:"vertices"`
		Certified  int                `json:"certified"`
		Fallbacks  int                `json:"fallbacks"`
	}{uint64(snap.Gen), true, q.K, out, certified, len(out) - certified})
}

// handleBatch answers POST .../batch: every query of the batch runs
// against one pinned generation.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, eng *toprr.Engine) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var req struct {
		Queries []queryJSON `json:"queries"`
	}
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	snap := eng.Snapshot()
	qs := make([]toprr.Query, len(req.Queries))
	for i, qj := range req.Queries {
		q, err := buildQuery(snap, qj)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		qs[i] = q
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	results, err := eng.SolveBatchAt(ctx, snap, qs)
	if err != nil {
		writeErr(w, solveStatus(err), err)
		return
	}
	out := make([]resultJSON, len(results))
	for i, res := range results {
		out[i] = resultToJSON(res)
	}
	writeJSON(w, http.StatusOK, struct {
		Generation uint64       `json:"generation"`
		Results    []resultJSON `json:"results"`
	}{uint64(snap.Gen), out})
}

// opJSON is the wire form of one dataset mutation.
type opJSON struct {
	Op    string    `json:"op"` // "insert", "delete" or "update"
	Index int       `json:"index,omitempty"`
	Point []float64 `json:"point,omitempty"`
}

func (oj opJSON) toOp() (toprr.Op, error) {
	switch strings.ToLower(oj.Op) {
	case "insert":
		return toprr.Insert(vec.Vector(oj.Point)), nil
	case "delete":
		return toprr.Delete(oj.Index), nil
	case "update":
		return toprr.Update(oj.Index, vec.Vector(oj.Point)), nil
	default:
		return toprr.Op{}, fmt.Errorf("unknown op %q (want insert, delete or update)", oj.Op)
	}
}

// appliedOpJSON is one op-log entry on the wire.
type appliedOpJSON struct {
	Seq        uint64    `json:"seq"`
	Generation uint64    `json:"generation"`
	Op         string    `json:"op"`
	Index      int       `json:"index"`
	Point      []float64 `json:"point,omitempty"`
	Moved      int       `json:"moved"` // delete: former index of the swapped-in option, -1 otherwise
}

// handleOps mutates the dataset (POST) or reads the applied-ops log
// (GET ?since=<seq>).
func (s *server) handleOps(w http.ResponseWriter, r *http.Request, eng *toprr.Engine) {
	switch r.Method {
	case http.MethodPost:
		var req struct {
			Ops []opJSON `json:"ops"`
		}
		if err := s.decodeBody(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
			return
		}
		if len(req.Ops) == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("empty ops batch"))
			return
		}
		ops := make([]toprr.Op, len(req.Ops))
		for i, oj := range req.Ops {
			op, err := oj.toOp()
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("op %d: %w", i, err))
				return
			}
			ops[i] = op
		}
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		gen, err := eng.Apply(ctx, ops)
		if err != nil {
			// Validation failures reject the whole batch atomically with
			// 400. Server-side faults are not the batch's fault: a
			// cancelled or timed-out request maps like the solve path, a
			// WAL write failure is a 500, and a closing engine a 503.
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
				code = solveStatus(err)
			case errors.Is(err, toprr.ErrClosed):
				code = http.StatusServiceUnavailable
			case errors.Is(err, toprr.ErrDurability):
				code = http.StatusInternalServerError
			}
			writeErr(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Generation uint64 `json:"generation"`
			Applied    int    `json:"applied"`
		}{uint64(gen), len(ops)})
	case http.MethodGet:
		var since uint64
		if v := r.URL.Query().Get("since"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("since: %w", err))
				return
			}
			since = n
		}
		log := eng.Log(since)
		out := make([]appliedOpJSON, len(log))
		for i, e := range log {
			out[i] = appliedOpJSON{
				Seq:        e.Seq,
				Generation: uint64(e.Gen),
				Op:         e.Op.Kind.String(),
				Index:      e.Op.Index,
				Point:      e.Op.Point,
				Moved:      e.Moved,
			}
		}
		writeJSON(w, http.StatusOK, struct {
			Generation uint64          `json:"generation"`
			Ops        []appliedOpJSON `json:"ops"`
		}{uint64(eng.Generation()), out})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST or GET"))
	}
}

// createJSON is the wire form of POST /v1/datasets: a name plus either
// explicit points or a synthetic-distribution spec.
type createJSON struct {
	Name   string      `json:"name"`
	Points [][]float64 `json:"points,omitempty"`
	Dist   string      `json:"dist,omitempty"`
	N      int         `json:"n,omitempty"`
	D      int         `json:"d,omitempty"`
	Seed   int64       `json:"seed,omitempty"`
}

// Bounds on synthetic datasets created over the wire, so one POST
// cannot allocate the daemon into the ground.
const (
	maxCreateN = 1 << 20
	maxCreateD = 10
)

// bootstrapPoints materializes a create request's dataset.
func bootstrapPoints(req createJSON) ([]vec.Vector, error) {
	if len(req.Points) > 0 {
		if req.Dist != "" || req.N != 0 || req.D != 0 || req.Seed != 0 {
			return nil, fmt.Errorf("give either points or a dist spec (dist/n/d/seed), not both")
		}
		pts := make([]vec.Vector, len(req.Points))
		for i, p := range req.Points {
			pts[i] = vec.Vector(p)
		}
		// Validate here, where a bad dataset is still provably the
		// caller's fault (400); past this point a Create failure is the
		// server's (500).
		if err := toprr.CheckDataset(pts); err != nil {
			return nil, err
		}
		return pts, nil
	}
	if req.Dist == "" {
		return nil, fmt.Errorf("dataset needs points or a dist spec ({\"dist\":\"IND\",\"n\":1000,\"d\":3})")
	}
	dd, err := dataset.ParseDistribution(req.Dist)
	if err != nil {
		return nil, err
	}
	if req.N <= 0 || req.N > maxCreateN {
		return nil, fmt.Errorf("n=%d out of range (0, %d]", req.N, maxCreateN)
	}
	if req.D < 2 || req.D > maxCreateD {
		return nil, fmt.Errorf("d=%d out of range [2, %d]", req.D, maxCreateD)
	}
	return dataset.Generate(dd, req.N, req.D, req.Seed).Pts, nil
}

// handleDatasets lists (GET) or creates (POST) datasets.
func (s *server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		infos := s.reg.List()
		type infoJSON struct {
			Name string `json:"name"`
			Open bool   `json:"open"`
		}
		out := make([]infoJSON, len(infos))
		for i, info := range infos {
			out[i] = infoJSON{Name: info.Name, Open: info.Open}
		}
		writeJSON(w, http.StatusOK, struct {
			Datasets []infoJSON `json:"datasets"`
		}{out})
	case http.MethodPost:
		var req createJSON
		if err := s.decodeBody(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
			return
		}
		if err := toprr.ValidateDatasetName(req.Name); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		pts, err := bootstrapPoints(req)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		eng, err := s.reg.Create(req.Name, pts)
		if err != nil {
			// The name and dataset validated above, so what remains is a
			// name conflict, a closing registry, or a server-side fault
			// (disk I/O on a durable registry) — never the request's.
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, toprr.ErrDatasetExists):
				code = http.StatusConflict
			case errors.Is(err, toprr.ErrRegistryClosed):
				code = http.StatusServiceUnavailable
			}
			writeErr(w, code, err)
			return
		}
		w.Header().Set("Location", datasetsPrefix+"/"+req.Name)
		writeJSON(w, http.StatusCreated, struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
			Options    int    `json:"options"`
			Dim        int    `json:"dim"`
		}{req.Name, uint64(eng.Generation()), eng.Len(), eng.Dim()})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}

// handleDatasetDelete answers DELETE /v1/datasets/{name}.
func (s *server) handleDatasetDelete(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodDelete {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use DELETE"))
		return
	}
	if err := s.reg.Drop(name); err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, toprr.ErrUnknownDataset):
			code = http.StatusNotFound
		case errors.Is(err, toprr.ErrRegistryClosed):
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Dropped string `json:"dropped"`
	}{name})
}

// datasetStatsJSON is one dataset's stats block: generation, shape,
// cache occupancy, snapshot GC counters and durable-layer state. For an
// evicted dataset (open=false) only name and open are meaningful —
// stats never page a tenant back in.
type datasetStatsJSON struct {
	Name           string `json:"name"`
	Open           bool   `json:"open"`
	Generation     uint64 `json:"generation"`
	Options        int    `json:"options"`
	Dim            int    `json:"dim"`
	TopKConfigs    int    `json:"cache_topk_configs"`
	TopKHits       int    `json:"cache_topk_hits"`
	TopKMisses     int    `json:"cache_topk_misses"`
	Evictions      int    `json:"cache_evictions"`
	PatchedEntries int    `json:"cache_patched_entries"`
	PatchInserts   int    `json:"cache_patch_inserts"`
	UntouchedAdvs  int    `json:"cache_untouched_advances"`
	MaxConfigs     int    `json:"cache_max_configs,omitempty"`
	SketchEntries  int    `json:"sketch_entries"`
	SketchFolded   int    `json:"sketch_folded"`
	SketchHits     int    `json:"sketch_gate_hits"`
	SketchMisses   int    `json:"sketch_gate_misses"`
	SketchSkips    int    `json:"sketch_certified_skips"`
	SketchCert     int    `json:"sketch_certified"`
	SketchFalls    int    `json:"sketch_fallbacks"`
	LiveGens       int    `json:"live_generations"`
	RetainedBytes  int64  `json:"retained_snapshot_bytes"`
	Persistent     bool   `json:"persistent"`
	WALBytes       int64  `json:"wal_bytes"`
	WALSegments    int    `json:"wal_segments"`
	WALSyncs       int64  `json:"wal_syncs,omitempty"`
	LastCompaction uint64 `json:"last_compaction_generation"`
	CompactError   string `json:"wal_compact_error,omitempty"`
	CloseError     string `json:"close_error,omitempty"` // last idle-eviction close failure
}

func datasetStatsToJSON(ds toprr.DatasetStats) datasetStatsJSON {
	closeErr := ""
	if ds.CloseErr != nil {
		closeErr = ds.CloseErr.Error()
	}
	return datasetStatsJSON{
		Name:           ds.Name,
		Open:           ds.Open,
		Generation:     uint64(ds.Cache.Generation),
		Options:        ds.Options,
		Dim:            ds.Dim,
		TopKConfigs:    ds.Cache.TopKConfigs,
		TopKHits:       ds.Cache.TopKHits,
		TopKMisses:     ds.Cache.TopKMisses,
		Evictions:      ds.Cache.Evictions,
		PatchedEntries: ds.Cache.PatchedEntries,
		PatchInserts:   ds.Cache.PatchInserts,
		UntouchedAdvs:  ds.Cache.UntouchedAdvances,
		MaxConfigs:     ds.MaxConfigs,
		SketchEntries:  ds.Cache.SketchEntries,
		SketchFolded:   ds.Cache.SketchFolded,
		SketchHits:     ds.Cache.SketchGateHits,
		SketchMisses:   ds.Cache.SketchGateMisses,
		SketchSkips:    ds.Cache.SketchCertifiedSkips,
		SketchCert:     ds.Cache.SketchCertified,
		SketchFalls:    ds.Cache.SketchFallbacks,
		LiveGens:       ds.Cache.LiveGenerations,
		RetainedBytes:  ds.Cache.RetainedSnapshotBytes,
		Persistent:     ds.Persist.Persistent,
		WALBytes:       ds.Persist.WALBytes,
		WALSegments:    ds.Persist.WALSegments,
		WALSyncs:       ds.Persist.WALSyncs,
		LastCompaction: uint64(ds.Persist.LastCompaction),
		CompactError:   ds.Persist.CompactError,
		CloseError:     closeErr,
	}
}

// engineStats converts one resident engine's counters into the
// per-dataset stats block (used by the per-dataset stats route, where
// the engine is already acquired).
func engineStats(name string, eng *toprr.Engine) datasetStatsJSON {
	return datasetStatsToJSON(toprr.EngineDatasetStats(name, eng))
}

// handleDatasetStats answers GET /v1/datasets/{name}/stats for one
// tenant (acquiring it — unlike the aggregate route — so it reports a
// live engine even if it was evicted).
func (s *server) handleDatasetStats(w http.ResponseWriter, r *http.Request, name string, eng *toprr.Engine) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, engineStats(name, eng))
}

// statsTotals aggregates the open tenants.
type statsTotals struct {
	Datasets       int   `json:"datasets"`
	OpenDatasets   int   `json:"open_datasets"`
	Options        int   `json:"options"`
	TopKConfigs    int   `json:"cache_topk_configs"`
	TopKHits       int   `json:"cache_topk_hits"`
	TopKMisses     int   `json:"cache_topk_misses"`
	Evictions      int   `json:"cache_evictions"`
	PatchedEntries int   `json:"cache_patched_entries"`
	PatchInserts   int   `json:"cache_patch_inserts"`
	UntouchedAdvs  int   `json:"cache_untouched_advances"`
	SketchEntries  int   `json:"sketch_entries"`
	SketchHits     int   `json:"sketch_gate_hits"`
	SketchSkips    int   `json:"sketch_certified_skips"`
	SketchCert     int   `json:"sketch_certified"`
	SketchFalls    int   `json:"sketch_fallbacks"`
	LiveGens       int   `json:"live_generations"`
	RetainedBytes  int64 `json:"retained_snapshot_bytes"`
	WALBytes       int64 `json:"wal_bytes"`
	WALSegments    int   `json:"wal_segments"`
}

// handleStats answers GET /v1/stats: per-dataset breakdowns, totals
// across tenants, and process-wide work counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	all := s.reg.Stats()
	perDS := make([]datasetStatsJSON, len(all))
	var totals statsTotals
	totals.Datasets = len(all)
	for i, ds := range all {
		perDS[i] = datasetStatsToJSON(ds)
		if !ds.Open {
			continue
		}
		totals.OpenDatasets++
		totals.Options += perDS[i].Options
		totals.TopKConfigs += perDS[i].TopKConfigs
		totals.TopKHits += perDS[i].TopKHits
		totals.TopKMisses += perDS[i].TopKMisses
		totals.Evictions += perDS[i].Evictions
		totals.PatchedEntries += perDS[i].PatchedEntries
		totals.PatchInserts += perDS[i].PatchInserts
		totals.UntouchedAdvs += perDS[i].UntouchedAdvs
		totals.SketchEntries += perDS[i].SketchEntries
		totals.SketchHits += perDS[i].SketchHits
		totals.SketchSkips += perDS[i].SketchSkips
		totals.SketchCert += perDS[i].SketchCert
		totals.SketchFalls += perDS[i].SketchFalls
		totals.LiveGens += perDS[i].LiveGens
		totals.RetainedBytes += perDS[i].RetainedBytes
		totals.WALBytes += perDS[i].WALBytes
		totals.WALSegments += perDS[i].WALSegments
	}
	ctr := toprr.ReadCounters()
	writeJSON(w, http.StatusOK, struct {
		UptimeMS float64 `json:"uptime_ms"`
		// Tenancy view.
		Datasets []datasetStatsJSON `json:"datasets"`
		Totals   statsTotals        `json:"totals"`
		// Process-wide work counters.
		Regions  int64 `json:"regions_processed"`
		LPSolves int64 `json:"lp_solves"`
		QPSolves int64 `json:"qp_solves"`
	}{
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Datasets: perDS,
		Totals:   totals,
		Regions:  ctr.RegionsProcessed,
		LPSolves: ctr.LPSolves,
		QPSolves: ctr.QPSolves,
	})
}
