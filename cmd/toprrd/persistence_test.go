package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// statsJSON mirrors the default dataset's stats fields this suite
// asserts on.
type statsJSON struct {
	Generation     uint64 `json:"generation"`
	Options        int    `json:"options"`
	LiveGens       int    `json:"live_generations"`
	RetainedBytes  int64  `json:"retained_snapshot_bytes"`
	Persistent     bool   `json:"persistent"`
	WALBytes       int64  `json:"wal_bytes"`
	WALSegments    int    `json:"wal_segments"`
	LastCompaction uint64 `json:"last_compaction_generation"`
}

func getStats(t *testing.T, url string) statsJSON {
	t.Helper()
	resp, err := http.Get(url + "/v1/datasets/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsJSON
	decodeJSON(t, resp, &stats)
	return stats
}

// durableServer builds an httptest server over a durable registry
// rooted at root whose default dataset, when absent, is bootstrapped
// from pts. The registry is returned for explicit shutdown.
func durableServer(t *testing.T, root string, pts []vec.Vector, cfg toprr.PersistConfig) (*httptest.Server, *toprr.Registry) {
	t.Helper()
	cfg.Dir = root
	reg, err := toprr.NewRegistry(toprr.WithRegistryPersistence(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("default", pts); err != nil {
		reg.Close()
		t.Fatal(err)
	}
	return httptest.NewServer(newServer(reg, time.Minute, 32<<20)), reg
}

// TestDaemonRestartServesSameState is the default-dataset acceptance
// scenario: a durable daemon takes mutations over HTTP on the default
// dataset, shuts down, and a restarted daemon over the same registry
// root serves the same generation contents through the same routes.
func TestDaemonRestartServesSameState(t *testing.T) {
	root := t.TempDir()
	ts, reg := durableServer(t, root, testPts(40), toprr.PersistConfig{})

	resp := postJSON(t, ts.URL+"/v1/datasets/default/ops", map[string]any{
		"ops": []opJSON{
			{Op: "insert", Point: []float64{0.9, 0.9, 0.9}},
			{Op: "update", Index: 3, Point: []float64{0.95, 0.1, 0.5}},
			{Op: "delete", Index: 0},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ops status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	before := getStats(t, ts.URL)
	if !before.Persistent || before.WALBytes <= 0 {
		t.Fatalf("durable daemon stats = %+v", before)
	}
	engine, err := reg.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	wantPts := engine.Scorer().Points()
	ts.Close()
	// Close releases the directory flocks like a process death would; it
	// writes nothing, so the restart recovers purely from base snapshot
	// + WAL replay (true kill -9 recovery is exercised by the store
	// suite, where the lock fd can be dropped without Close).
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same root; the bootstrap dataset is a decoy the
	// recovery must ignore.
	ts2, reg2 := durableServer(t, root, []vec.Vector{vec.Of(0.1, 0.1, 0.1)}, toprr.PersistConfig{})
	defer reg2.Close()
	defer ts2.Close()

	after := getStats(t, ts2.URL)
	if after.Generation != before.Generation || after.Options != before.Options {
		t.Fatalf("restarted daemon at generation %d with %d options, want %d with %d",
			after.Generation, after.Options, before.Generation, before.Options)
	}
	engine2, err := reg2.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	got := engine2.Scorer().Points()
	for i := range wantPts {
		if !got[i].Equal(wantPts[i], 0) {
			t.Fatalf("slot %d = %v after restart, want %v", i, got[i], wantPts[i])
		}
	}
	// GC observability fields are live on the wire.
	if after.LiveGens < 1 || after.RetainedBytes <= 0 {
		t.Fatalf("GC stats on the wire = %+v", after)
	}
}

// TestStatsReportCompaction: once mutations cross the compaction
// threshold, the dataset's stats show the truncated WAL and the advanced base
// snapshot watermark.
func TestStatsReportCompaction(t *testing.T) {
	ts, reg := durableServer(t, t.TempDir(),
		[]vec.Vector{vec.Of(0.2, 0.8, 0.5), vec.Of(0.8, 0.2, 0.5)},
		toprr.PersistConfig{CompactOps: 4})
	defer reg.Close()
	defer ts.Close()

	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.URL+"/v1/datasets/default/ops", map[string]any{
			"ops": []opJSON{{Op: "insert", Point: []float64{0.5, 0.5, 0.5}}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ops %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	stats := getStats(t, ts.URL)
	if stats.LastCompaction <= 1 {
		t.Fatalf("no compaction visible in stats: %+v", stats)
	}
	if stats.WALSegments != 1 {
		t.Fatalf("stats report %d segments after compaction, want 1", stats.WALSegments)
	}
}
