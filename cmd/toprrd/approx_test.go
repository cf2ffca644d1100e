package main

import (
	"io"
	"net/http"
	"testing"
	"time"
)

// TestApproxSolveEndpoint: .../solve?approx=1 answers with per-vertex
// TopK(w) intervals from the sketch tier instead of the exact region,
// and the vertex count matches the query box's geometry.
func TestApproxSolveEndpoint(t *testing.T) {
	ts, _ := testServer(t, 80, time.Minute)

	resp := postJSON(t, ts.URL+"/v1/datasets/default/solve?approx=1", queryJSON{K: 3, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Generation uint64             `json:"generation"`
		Approx     bool               `json:"approx"`
		K          int                `json:"k"`
		Vertices   []approxVertexJSON `json:"vertices"`
		Certified  int                `json:"certified"`
		Fallbacks  int                `json:"fallbacks"`
	}
	decodeJSON(t, resp, &out)
	if !out.Approx || out.K != 3 {
		t.Fatalf("approx=%v k=%d, want true/3", out.Approx, out.K)
	}
	if len(out.Vertices) == 0 {
		t.Fatal("no vertex intervals returned")
	}
	if out.Certified+out.Fallbacks != len(out.Vertices) {
		t.Fatalf("certified %d + fallbacks %d != %d vertices", out.Certified, out.Fallbacks, len(out.Vertices))
	}
	for i, v := range out.Vertices {
		if len(v.W) != 2 {
			t.Fatalf("vertex %d has %d preference components, want 2", i, len(v.W))
		}
		if v.Lo > v.Hi {
			t.Fatalf("vertex %d interval inverted: [%v, %v]", i, v.Lo, v.Hi)
		}
	}

	// Invalid queries fail the same validation as the exact route.
	resp = postJSON(t, ts.URL+"/v1/datasets/default/solve?approx=1", queryJSON{K: 0, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 status = %d, want 400", resp.StatusCode)
	}
}

// TestStatsExposeSketchCounters: the aggregate stats route surfaces the
// sketch tier's occupancy and counters per dataset and in the totals.
func TestStatsExposeSketchCounters(t *testing.T) {
	ts, _ := testServer(t, 80, time.Minute)

	// Drive the approximate path once so the counters move.
	resp := postJSON(t, ts.URL+"/v1/datasets/default/solve?approx=1", queryJSON{K: 3, Lo: []float64{0.2, 0.2}, Hi: []float64{0.3, 0.3}})
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Datasets []datasetStatsJSON `json:"datasets"`
		Totals   statsTotals        `json:"totals"`
	}
	decodeJSON(t, resp, &out)
	if len(out.Datasets) != 1 {
		t.Fatalf("got %d datasets, want 1", len(out.Datasets))
	}
	ds := out.Datasets[0]
	if ds.SketchEntries == 0 {
		t.Error("sketch_entries = 0 on a populated dataset")
	}
	if ds.SketchCert+ds.SketchFalls == 0 {
		t.Error("approximate queries left no trace in sketch counters")
	}
	if out.Totals.SketchEntries != ds.SketchEntries {
		t.Errorf("totals sketch_entries %d != dataset %d", out.Totals.SketchEntries, ds.SketchEntries)
	}
}

// TestApproxSolveSimplexEdgeBox: PrefBox's simplex clip can lerp a
// vertex whose components sum to 1 plus an ulp; the approximate route
// must answer such a box like the exact route does, not fail with 500.
func TestApproxSolveSimplexEdgeBox(t *testing.T) {
	ts, _ := testServer(t, 80, time.Minute)
	q := queryJSON{K: 3,
		Lo: []float64{0.13774415321799444, 0.5699624443012762},
		Hi: []float64{0.15172981753626913, 0.8497738836983805}}
	for _, url := range []string{"/v1/datasets/default/solve", "/v1/datasets/default/solve?approx=1"} {
		resp := postJSON(t, ts.URL+url, q)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status = %d (%s), want 200", url, resp.StatusCode, body)
		}
	}
}
