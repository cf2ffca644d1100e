package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// testPts builds n deterministic random options in [0,1]^3 (preference
// space is 2-dimensional).
func testPts(n int) []vec.Vector {
	rng := rand.New(rand.NewSource(7))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	}
	return pts
}

// testRegistry builds a memory-only registry whose default dataset
// holds n random options, served at /v1/datasets/default/…. Cleanup
// closes it.
func testRegistry(t *testing.T, n int) (*toprr.Registry, *toprr.Engine) {
	t.Helper()
	reg, err := toprr.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	engine, err := reg.Create("default", testPts(n))
	if err != nil {
		t.Fatal(err)
	}
	return reg, engine
}

// testServer is an httptest server over a fresh default-only registry.
func testServer(t *testing.T, n int, timeout time.Duration) (*httptest.Server, *toprr.Engine) {
	t.Helper()
	reg, engine := testRegistry(t, n)
	ts := httptest.NewServer(newServer(reg, timeout, 32<<20))
	t.Cleanup(ts.Close)
	return ts, engine
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestSolveEndpoint: .../solve answers one query with the exact
// H-representation of oR and names the generation it ran against.
func TestSolveEndpoint(t *testing.T) {
	ts, _ := testServer(t, 80, time.Minute)

	resp := postJSON(t, ts.URL+"/v1/datasets/default/solve", queryJSON{K: 3, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Generation uint64     `json:"generation"`
		Result     resultJSON `json:"result"`
	}
	decodeJSON(t, resp, &out)
	if out.Generation != 1 {
		t.Errorf("generation = %d, want 1", out.Generation)
	}
	if len(out.Result.Constraints) == 0 {
		t.Error("no oR constraints returned")
	}
	if out.Result.Stats.InputOptions != 80 {
		t.Errorf("stats report %d input options, want 80", out.Result.Stats.InputOptions)
	}
}

// TestBatchEndpoint: .../batch answers every query against one pinned
// generation.
func TestBatchEndpoint(t *testing.T) {
	ts, _ := testServer(t, 80, time.Minute)

	resp := postJSON(t, ts.URL+"/v1/datasets/default/batch", map[string]any{
		"queries": []queryJSON{
			{K: 2, Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
			{K: 3, Lo: []float64{0.3, 0.3}, Hi: []float64{0.35, 0.35}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Generation uint64       `json:"generation"`
		Results    []resultJSON `json:"results"`
	}
	decodeJSON(t, resp, &out)
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(out.Results))
	}
	for i, r := range out.Results {
		if len(r.Constraints) == 0 {
			t.Errorf("result %d has no constraints", i)
		}
	}
}

// TestOpsRoundtrip: mutations publish new generations, show up in the
// op log, and subsequent solves run against the mutated dataset.
func TestOpsRoundtrip(t *testing.T) {
	ts, engine := testServer(t, 60, time.Minute)

	// Insert, then upgrade the inserted option, then withdraw option 0.
	resp := postJSON(t, ts.URL+"/v1/datasets/default/ops", map[string]any{
		"ops": []opJSON{
			{Op: "insert", Point: []float64{0.9, 0.9, 0.9}},
			{Op: "update", Index: 60, Point: []float64{0.95, 0.95, 0.95}},
			{Op: "delete", Index: 0},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var applied struct {
		Generation uint64 `json:"generation"`
		Applied    int    `json:"applied"`
	}
	decodeJSON(t, resp, &applied)
	if applied.Generation != 2 || applied.Applied != 3 {
		t.Errorf("applied = %+v, want generation 2, applied 3", applied)
	}
	if engine.Len() != 60 { // +1 insert, -1 delete
		t.Errorf("engine has %d options, want 60", engine.Len())
	}

	// The log reports all three ops, with delete's swap recorded.
	resp, err := http.Get(ts.URL + "/v1/datasets/default/ops?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Generation uint64          `json:"generation"`
		Ops        []appliedOpJSON `json:"ops"`
	}
	decodeJSON(t, resp, &log)
	if len(log.Ops) != 3 {
		t.Fatalf("log has %d entries, want 3", len(log.Ops))
	}
	if log.Ops[2].Op != "delete" || log.Ops[2].Moved != 60 {
		t.Errorf("delete entry = %+v, want Moved=60", log.Ops[2])
	}

	// Solves now run against generation 2.
	resp = postJSON(t, ts.URL+"/v1/datasets/default/solve", queryJSON{K: 2, Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}})
	var out struct {
		Generation uint64     `json:"generation"`
		Result     resultJSON `json:"result"`
	}
	decodeJSON(t, resp, &out)
	if out.Generation != 2 {
		t.Errorf("solve ran against generation %d, want 2", out.Generation)
	}
	if out.Result.Stats.InputOptions != 60 {
		t.Errorf("solve saw %d options, want 60", out.Result.Stats.InputOptions)
	}

	// Stats reflect the new generation.
	resp, err = http.Get(ts.URL + "/v1/datasets/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Generation uint64 `json:"generation"`
		Options    int    `json:"options"`
	}
	decodeJSON(t, resp, &stats)
	if stats.Generation != 2 || stats.Options != 60 {
		t.Errorf("stats = %+v, want generation 2 with 60 options", stats)
	}
}

// TestOpsRejectsBadBatches: invalid mutations reject atomically with
// 400 and do not move the generation.
func TestOpsRejectsBadBatches(t *testing.T) {
	ts, engine := testServer(t, 30, time.Minute)

	cases := []map[string]any{
		{"ops": []opJSON{}},
		{"ops": []opJSON{{Op: "upsert", Point: []float64{0.5, 0.5, 0.5}}}},
		{"ops": []opJSON{{Op: "insert", Point: []float64{0.5}}}},
		{"ops": []opJSON{{Op: "insert", Point: []float64{0.5, 0.5, 0.5}}, {Op: "delete", Index: 99}}},
	}
	for i, body := range cases {
		resp := postJSON(t, ts.URL+"/v1/datasets/default/ops", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	if engine.Generation() != 1 {
		t.Errorf("rejected batches moved the generation to %d", engine.Generation())
	}
}

// TestRequestDeadline: the per-request deadline aborts long solves with
// 504.
func TestRequestDeadline(t *testing.T) {
	ts, _ := testServer(t, 400, time.Nanosecond)

	resp := postJSON(t, ts.URL+"/v1/datasets/default/solve", queryJSON{K: 5, Lo: []float64{0.1, 0.1}, Hi: []float64{0.5, 0.5}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

// TestBadRequests: wrong methods and malformed bodies map to 405/400.
func TestBadRequests(t *testing.T) {
	ts, _ := testServer(t, 30, time.Minute)

	resp, err := http.Get(ts.URL + "/v1/datasets/default/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET .../solve status = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/datasets/default/solve", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/datasets/default/solve", queryJSON{K: 0, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=0 status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/datasets/default/solve", queryJSON{K: 2, Lo: []float64{0.2}, Hi: []float64{0.3, 0.3}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched box status = %d, want 400", resp.StatusCode)
	}
}

// TestBuildQueryBoundsWorkers: a request's worker count is clamped to
// GOMAXPROCS, since each worker is a goroutine per solve, and a negative
// count is rejected.
func TestBuildQueryBoundsWorkers(t *testing.T) {
	_, engine := testRegistry(t, 20)
	snap := engine.Snapshot()
	qj := queryJSON{K: 2, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}, Workers: 1 << 30}
	q, err := buildQuery(snap, qj)
	if err != nil {
		t.Fatal(err)
	}
	if procs := runtime.GOMAXPROCS(0); q.Options == nil || q.Options.Workers > procs {
		t.Fatalf("workers=1<<30 built options %+v, want Workers <= GOMAXPROCS=%d", q.Options, procs)
	}
	qj.Workers = -1
	if _, err := buildQuery(snap, qj); err == nil {
		t.Fatal("workers=-1 accepted")
	}
}

// TestGracefulShutdown: cancelling the run context drains the server and
// run returns cleanly; the listener stops accepting afterwards.
func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := testRegistry(t, 30)
	srv := &http.Server{Handler: newServer(reg, time.Minute, 32<<20)}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() { done <- run(ctx, srv, ln, 5*time.Second) }()

	url := fmt.Sprintf("http://%s/v1/stats", ln.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestStatsExposePatchCounters: a pure-insert ops batch routes through
// the engine's patch plane, and the cumulative patch counters surface
// per dataset and in the totals of /v1/stats.
func TestStatsExposePatchCounters(t *testing.T) {
	ts, engine := testServer(t, 50, time.Minute)

	// Warm a whole-dataset rank memo so the insert has something to
	// patch, then apply one pure insert and one delete.
	if _, err := engine.Rank(vec.Of(0.3, 0.25), 5); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/datasets/default/ops", map[string]any{
		"ops": []opJSON{{Op: "insert", Point: []float64{0.99, 0.98, 0.97}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/datasets/default/ops", map[string]any{
		"ops": []opJSON{{Op: "delete", Index: 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Datasets []struct {
			Name           string `json:"name"`
			PatchedEntries int    `json:"cache_patched_entries"`
			PatchInserts   int    `json:"cache_patch_inserts"`
			UntouchedAdvs  int    `json:"cache_untouched_advances"`
		} `json:"datasets"`
		Totals struct {
			PatchedEntries int `json:"cache_patched_entries"`
			PatchInserts   int `json:"cache_patch_inserts"`
		} `json:"totals"`
	}
	decodeJSON(t, resp, &stats)
	if len(stats.Datasets) != 1 || stats.Datasets[0].Name != "default" {
		t.Fatalf("datasets = %+v", stats.Datasets)
	}
	ds := stats.Datasets[0]
	// Exactly the insert batch went through the patch path (the delete
	// took the reshape path), and the dominant point cracked the warmed
	// rank memo.
	if ds.PatchInserts != 1 {
		t.Errorf("cache_patch_inserts = %d, want 1", ds.PatchInserts)
	}
	if ds.PatchedEntries == 0 {
		t.Error("cache_patched_entries = 0, want > 0 (dominant insert cracked the rank memo)")
	}
	if ds.UntouchedAdvs != 0 {
		t.Errorf("cache_untouched_advances = %d, want 0", ds.UntouchedAdvs)
	}
	if stats.Totals.PatchInserts != ds.PatchInserts || stats.Totals.PatchedEntries != ds.PatchedEntries {
		t.Errorf("totals %+v do not mirror the single dataset %+v", stats.Totals, ds)
	}
}

// TestHealthzBuildInfo: the liveness probe reports build info so fleet
// operators can spot version skew from the probe alone.
func TestHealthzBuildInfo(t *testing.T) {
	ts, _ := testServer(t, 50, time.Minute)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status    string `json:"status"`
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Errorf("status = %q", out.Status)
	}
	if out.Version == "" {
		t.Error("healthz reports no version")
	}
	if !strings.HasPrefix(out.GoVersion, "go") {
		t.Errorf("go_version = %q, want a Go toolchain version", out.GoVersion)
	}
}
