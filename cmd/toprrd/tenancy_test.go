package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// doJSON issues a method/url/body request and returns the response.
func doJSON(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// solveGen posts one cheap solve to a dataset route and returns the
// generation it ran against.
func solveGen(t *testing.T, base, route string) uint64 {
	t.Helper()
	resp := doJSON(t, http.MethodPost, base+route, queryJSON{K: 2, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s status = %d", route, resp.StatusCode)
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	decodeJSON(t, resp, &out)
	return out.Generation
}

// listNames fetches GET /v1/datasets and returns the names in order.
func listNames(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Datasets []struct {
			Name string `json:"name"`
			Open bool   `json:"open"`
		} `json:"datasets"`
	}
	decodeJSON(t, resp, &out)
	names := make([]string, len(out.Datasets))
	for i, d := range out.Datasets {
		names[i] = d.Name
	}
	return names
}

// TestTenancyEndToEnd is the acceptance scenario: one daemon serves
// several named datasets with isolated mutations and per-dataset
// persistence directories that survive a restart, the boot-time
// default dataset among them.
func TestTenancyEndToEnd(t *testing.T) {
	root := t.TempDir()
	ts, reg := durableServer(t, root, testPts(40), toprr.PersistConfig{})

	// Create one tenant from explicit points and one from a synthetic
	// spec.
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{
		Name:   "alpha",
		Points: [][]float64{{0.9, 0.4, 0.5}, {0.7, 0.9, 0.2}, {0.3, 0.8, 0.7}, {0.2, 0.3, 0.9}, {0.6, 0.1, 0.4}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create alpha status = %d", resp.StatusCode)
	}
	var created struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
		Options    int    `json:"options"`
		Dim        int    `json:"dim"`
	}
	decodeJSON(t, resp, &created)
	if created.Options != 5 || created.Dim != 3 || created.Generation != 1 {
		t.Fatalf("created alpha = %+v", created)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{Name: "beta", Dist: "IND", N: 30, D: 3, Seed: 11})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create beta status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	if names := listNames(t, ts.URL); len(names) != 3 || names[0] != "alpha" || names[1] != "beta" || names[2] != "default" {
		t.Fatalf("datasets = %v", names)
	}

	// Mutations land in exactly one tenant.
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/alpha/ops", map[string]any{
		"ops": []opJSON{{Op: "insert", Point: []float64{0.95, 0.95, 0.95}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha ops status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if g := solveGen(t, ts.URL, "/v1/datasets/alpha/solve"); g != 2 {
		t.Fatalf("alpha solve generation = %d, want 2", g)
	}
	if g := solveGen(t, ts.URL, "/v1/datasets/beta/solve"); g != 1 {
		t.Fatalf("beta solve generation = %d, want 1 (mutation leaked across tenants)", g)
	}
	// The default dataset answers untouched at generation 1 with its
	// own option count.
	if g := solveGen(t, ts.URL, "/v1/datasets/default/solve"); g != 1 {
		t.Fatalf("default solve generation = %d, want 1", g)
	}

	// Each tenant owns a persistence directory under the root.
	for _, name := range []string{"alpha", "beta", "default"} {
		if _, err := os.Stat(filepath.Join(root, name)); err != nil {
			t.Fatalf("missing per-dataset dir %s: %v", name, err)
		}
	}

	// The aggregate stats route breaks out every tenant.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Datasets []datasetStatsJSON `json:"datasets"`
		Totals   statsTotals        `json:"totals"`
	}
	decodeJSON(t, resp, &stats)
	if stats.Totals.Datasets != 3 || stats.Totals.OpenDatasets != 3 {
		t.Fatalf("totals = %+v", stats.Totals)
	}
	if len(stats.Datasets) != 3 || stats.Datasets[0].Name != "alpha" || stats.Datasets[0].Generation != 2 {
		t.Fatalf("per-dataset stats = %+v", stats.Datasets)
	}
	if def := stats.Datasets[2]; def.Name != "default" || def.Generation != 1 || def.Options != 40 {
		t.Fatalf("default stats = %s gen %d, %d options; want default, 1, 40", def.Name, def.Generation, def.Options)
	}
	if want := 5 + 1 + 30 + 40; stats.Totals.Options != want {
		t.Fatalf("totals.Options = %d, want %d", stats.Totals.Options, want)
	}

	// The per-dataset stats route agrees.
	resp, err = http.Get(ts.URL + "/v1/datasets/alpha/stats")
	if err != nil {
		t.Fatal(err)
	}
	var alphaStats datasetStatsJSON
	decodeJSON(t, resp, &alphaStats)
	if alphaStats.Name != "alpha" || alphaStats.Generation != 2 || alphaStats.Options != 6 || !alphaStats.Persistent {
		t.Fatalf("alpha stats = %+v", alphaStats)
	}

	// Restart: a fresh registry over the same root serves all three
	// datasets at their pre-restart generations.
	ts.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	ts2, reg2 := durableServer(t, root, []vec.Vector{vec.Of(0.1, 0.1, 0.1)}, toprr.PersistConfig{})
	defer reg2.Close()
	defer ts2.Close()

	if names := listNames(t, ts2.URL); len(names) != 3 {
		t.Fatalf("datasets after restart = %v", names)
	}
	if g := solveGen(t, ts2.URL, "/v1/datasets/alpha/solve"); g != 2 {
		t.Fatalf("alpha generation after restart = %d, want 2", g)
	}
	if g := solveGen(t, ts2.URL, "/v1/datasets/beta/solve"); g != 1 {
		t.Fatalf("beta generation after restart = %d, want 1", g)
	}
	if g := solveGen(t, ts2.URL, "/v1/datasets/default/solve"); g != 1 {
		t.Fatalf("default solve after restart = %d, want 1", g)
	}

	// Deleting a tenant removes its directory and its routes.
	resp = doJSON(t, http.MethodDelete, ts2.URL+"/v1/datasets/beta", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete beta status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if _, err := os.Stat(filepath.Join(root, "beta")); !os.IsNotExist(err) {
		t.Fatalf("beta dir survives deletion: %v", err)
	}
	resp = doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/beta/solve", queryJSON{K: 1, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve on deleted dataset status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestDaemonIdleEvictionReopens: a tenant evicted by the idle janitor
// pages back in transparently on its next request.
func TestDaemonIdleEvictionReopens(t *testing.T) {
	root := t.TempDir()
	reg, err := toprr.NewRegistry(
		toprr.WithRegistryRoot(root),
		toprr.WithIdleTTL(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Create("default", testPts(30)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(reg, time.Minute, 32<<20))
	defer ts.Close()

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/default/ops", map[string]any{
		"ops": []opJSON{{Op: "insert", Point: []float64{0.5, 0.5, 0.5}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ops status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wait until the janitor evicts the idle tenant.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reg.EvictIdle()
		if infos := reg.List(); len(infos) == 1 && !infos[0].Open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("default never evicted: %+v", reg.List())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next request reopens from disk at the mutated generation.
	if g := solveGen(t, ts.URL, "/v1/datasets/default/solve"); g != 2 {
		t.Fatalf("post-eviction solve generation = %d, want 2", g)
	}
}

// TestHealthzAndRouteErrors covers the daemon-polish contract: a cheap
// liveness probe, JSON 404s for unknown routes, and JSON 405s for wrong
// methods.
func TestHealthzAndRouteErrors(t *testing.T) {
	ts, _ := testServer(t, 20, time.Minute)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var hz struct {
		Status   string `json:"status"`
		Datasets int    `json:"datasets"`
	}
	decodeJSON(t, resp, &hz)
	if hz.Status != "ok" || hz.Datasets != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	checkErrBody := func(resp *http.Response, want int, what string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status = %d, want %d", what, resp.StatusCode, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", what, ct)
		}
		var body errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Errorf("%s lacks a JSON error body (%v)", what, err)
		}
	}

	// Unknown routes: top-level, under /v1, and an unknown dataset
	// subroute.
	for _, path := range []string{"/nope", "/v1/nope", "/v1/datasets/default/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		checkErrBody(resp, http.StatusNotFound, "GET "+path)
	}
	// The old single-dataset paths are unknown routes too; the default
	// dataset answers only under /v1/datasets/default/.
	for _, path := range []string{"/v1/solve", "/v1/batch", "/v1/ops"} {
		body := queryJSON{K: 1, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}}
		checkErrBody(doJSON(t, http.MethodPost, ts.URL+path, body), http.StatusNotFound, "POST "+path)
	}

	// Wrong methods get 405, not the mux's plain-text default.
	checkErrBody(doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/default/solve", nil), http.StatusMethodNotAllowed, "PUT /v1/datasets/default/solve")
	checkErrBody(doJSON(t, http.MethodDelete, ts.URL+"/v1/stats", nil), http.StatusMethodNotAllowed, "DELETE /v1/stats")
	checkErrBody(doJSON(t, http.MethodPut, ts.URL+"/v1/datasets", nil), http.StatusMethodNotAllowed, "PUT /v1/datasets")
	checkErrBody(doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/default", nil), http.StatusMethodNotAllowed, "GET /v1/datasets/default")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/healthz", nil), http.StatusMethodNotAllowed, "POST /v1/healthz")

	// Dataset-route error mapping: bad names 400, unknown tenants 404,
	// duplicates 409, ambiguous create specs 400.
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/..%2Fescape/solve", nil), http.StatusBadRequest, "invalid name")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/ghost/solve", queryJSON{K: 1, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}}), http.StatusNotFound, "unknown dataset")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{Name: "default", Dist: "IND", N: 10, D: 3}), http.StatusConflict, "duplicate create")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{Name: "x", Points: [][]float64{{0.5, 0.5, 0.5}}, Dist: "IND", N: 10, D: 3}), http.StatusBadRequest, "ambiguous create")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{Name: "x", Dist: "IND", N: maxCreateN + 1, D: 3}), http.StatusBadRequest, "oversized n")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{Name: "x", Points: [][]float64{{1.5, 0.5, 0.5}}}), http.StatusBadRequest, "point outside [0,1]")
	checkErrBody(doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", createJSON{Name: "x", Points: [][]float64{{0.5, 0.5, 0.5}, {0.5, 0.5}}}), http.StatusBadRequest, "inconsistent dims")
}

// TestMaxBodyCap: the request-body cap rejects oversized POSTs as 400s
// instead of buffering them.
func TestMaxBodyCap(t *testing.T) {
	reg, _ := testRegistry(t, 20)
	ts := httptest.NewServer(newServer(reg, time.Minute, minBodyCap))
	defer ts.Close()

	big := make([]float64, 4096)
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/default/solve", queryJSON{K: 1, Lo: big, Hi: big})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status = %d, want 400", resp.StatusCode)
	}
}

// TestValidateMaxBody: the -max-body flag refuses caps too small to
// carry any request.
func TestValidateMaxBody(t *testing.T) {
	for _, n := range []int64{-1, 0, 1, minBodyCap - 1} {
		if err := validateMaxBody(n); err == nil {
			t.Errorf("validateMaxBody(%d) = nil, want error", n)
		}
	}
	for _, n := range []int64{minBodyCap, 32 << 20} {
		if err := validateMaxBody(n); err != nil {
			t.Errorf("validateMaxBody(%d) = %v", n, err)
		}
	}
}

// TestCreateDatasetLocation: POST /v1/datasets answers 201 with a
// Location header for the new resource.
func TestCreateDatasetLocation(t *testing.T) {
	ts, _ := testServer(t, 50, time.Minute)

	resp := postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name": "tenant-a", "dist": "IND", "n": 1000, "d": 3,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/datasets/tenant-a" {
		t.Errorf("Location = %q, want /v1/datasets/tenant-a", loc)
	}
}
