package toprr_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// TestEngineReopenServesSameState is the daemon-restart scenario: an
// engine applies mutations, the process "crashes" (no Close), and a
// reopened engine over the same data directory must answer queries
// identically to the pre-crash engine — same generation, same options,
// same solve results.
func TestEngineReopenServesSameState(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	dir := t.TempDir()
	pts := randomMarket(rng, 60, 3)

	engine, err := toprr.OpenEngine(pts, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		ops := []toprr.Op{
			toprr.Insert(randomPoint(rng, 3)),
			toprr.Update(rng.Intn(engine.Len()), randomPoint(rng, 3)),
		}
		if step%2 == 1 {
			ops = append(ops, toprr.Delete(rng.Intn(engine.Len())))
		}
		if _, err := engine.Apply(ctx, ops); err != nil {
			t.Fatal(err)
		}
	}
	q := wideQuery(rng, 3, 3)
	want, err := engine.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantGen, wantLen := engine.Generation(), engine.Len()
	// Close releases the data directory for the restarted engine; it
	// writes nothing (no snapshot-on-close), so the reopen below still
	// recovers purely from the base snapshot + WAL replay. Recovery
	// without any Close — a true crash, which also drops the directory
	// lock — is covered by the store-level suite and the daemon tests.
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := toprr.OpenEngine(nil, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Generation() != wantGen || reopened.Len() != wantLen {
		t.Fatalf("reopened gen=%d len=%d, want gen=%d len=%d",
			reopened.Generation(), reopened.Len(), wantGen, wantLen)
	}
	got, err := reopened.Solve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ORConstraints) != len(want.ORConstraints) {
		t.Fatalf("reopened solve: %d constraints, want %d",
			len(got.ORConstraints), len(want.ORConstraints))
	}
	for i := range want.ORConstraints {
		w, g := want.ORConstraints[i], got.ORConstraints[i]
		if !w.A.Equal(g.A, 1e-12) || w.B != g.B {
			t.Fatalf("constraint %d differs: %+v vs %+v", i, w, g)
		}
	}
}

func TestEngineCloseBlocksApply(t *testing.T) {
	engine, err := toprr.OpenEngine(
		[]vec.Vector{vec.Of(0.2, 0.8), vec.Of(0.8, 0.2)},
		toprr.WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = engine.Apply(context.Background(), []toprr.Op{toprr.Insert(vec.Of(0.5, 0.5))})
	if !errors.Is(err, toprr.ErrClosed) {
		t.Fatalf("apply after close = %v, want ErrClosed", err)
	}
	// Reads still serve.
	if engine.Len() != 2 {
		t.Fatalf("len after close = %d", engine.Len())
	}
}

func TestEngineStatsExposePersistenceAndGC(t *testing.T) {
	engine, err := toprr.OpenEngine(
		[]vec.Vector{vec.Of(0.2, 0.8), vec.Of(0.8, 0.2)},
		toprr.WithPersistenceConfig(toprr.PersistConfig{Dir: t.TempDir(), Sync: toprr.SyncNone}))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if _, err := engine.Apply(context.Background(), []toprr.Op{toprr.Insert(vec.Of(0.5, 0.5))}); err != nil {
		t.Fatal(err)
	}
	ps := engine.PersistStats()
	if !ps.Persistent || ps.WALBytes <= 0 || ps.WALSegments != 1 || ps.LastCompaction != 1 {
		t.Fatalf("persist stats = %+v", ps)
	}
	cs := engine.CacheStats()
	if cs.LiveGenerations < 1 || cs.RetainedSnapshotBytes <= 0 {
		t.Fatalf("GC stats = live %d, retained %d", cs.LiveGenerations, cs.RetainedSnapshotBytes)
	}
	// In-memory engines report a zero persist layer but live GC stats.
	mem := toprr.NewEngine([]vec.Vector{vec.Of(0.2, 0.8), vec.Of(0.8, 0.2)})
	if ps := mem.PersistStats(); ps.Persistent || ps.WALBytes != 0 {
		t.Fatalf("in-memory persist stats = %+v", ps)
	}
	if cs := mem.CacheStats(); cs.LiveGenerations != 1 {
		t.Fatalf("in-memory live generations = %d", cs.LiveGenerations)
	}
}

// TestEngineConcurrentApplyGroupCommit: concurrent Apply callers on a
// durable engine must coalesce on the WAL fsync (strictly fewer syncs
// than batches), publish every generation exactly once in order, and
// recover the identical dataset after reopen.
func TestEngineConcurrentApplyGroupCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "gc")
	pts := randomMarket(rng, 60, 3)
	eng, err := toprr.OpenEngine(pts, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		batches = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				op := toprr.Insert(randomPoint(wr, 3))
				if _, err := eng.Apply(ctx, []toprr.Op{op}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()

	if got, want := eng.Generation(), toprr.Generation(1+writers*batches); got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	if got, want := eng.Len(), 60+writers*batches; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	ps := eng.PersistStats()
	if ps.WALSyncs == 0 {
		t.Fatal("no fsyncs recorded")
	}
	// Sanity rather than timing-dependent coalescing: never more syncs
	// than batches plus the handful of maintenance flushes.
	if ps.WALSyncs > int64(writers*batches+8) {
		t.Errorf("WALSyncs = %d for %d batches; group commit not bounding flushes", ps.WALSyncs, writers*batches)
	}
	finalPts := eng.Scorer().Points()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := toprr.OpenEngine(nil, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(finalPts) {
		t.Fatalf("recovered %d options, want %d", re.Len(), len(finalPts))
	}
	rec := re.Scorer().Points()
	for i := range finalPts {
		if !rec[i].Equal(finalPts[i], 0) {
			t.Fatalf("recovered option %d differs", i)
		}
	}
}

// TestEngineReopensOldLayout: a durable directory whose base snapshot
// records a shard count (4) in the now reserved header field, plus a
// WAL tail, reopens into an engine that answers like a fresh engine
// over the same options.
func TestEngineReopensOldLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "ds")
	eng, err := toprr.OpenEngine(randomMarket(rng, 100, 3), toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	var ops []toprr.Op
	for i := 0; i < 7; i++ {
		ops = append(ops, toprr.Insert(randomPoint(rng, 3)))
	}
	if _, err := eng.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the base snapshot's header as the sharded layout wrote it:
	// magic, u64 generation, u64 op sequence, u32 n, u32 d, u32 shard
	// count, the options, and a CRC-32 of everything after the magic.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v, %v; want one", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	const magicLen = 8
	payload := data[magicLen : len(data)-4]
	binary.LittleEndian.PutUint32(payload[24:], 4)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := toprr.OpenEngine(nil, toprr.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 107 || re.Generation() != 2 {
		t.Fatalf("reopened %d options at generation %d, want 107 at 2", re.Len(), re.Generation())
	}
	fresh := toprr.NewEngine(re.Scorer().Points())
	for q := 0; q < 3; q++ {
		query := randomQuery(rng, 3, 2+rng.Intn(3))
		query.Options = oracleOptions()
		want, err := fresh.Solve(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Solve(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Vall) != len(want.Vall) || len(got.ORConstraints) != len(want.ORConstraints) {
			t.Fatalf("reopened |Vall| %d, constraints %d; fresh %d, %d",
				len(got.Vall), len(got.ORConstraints), len(want.Vall), len(want.ORConstraints))
		}
		sameRegion(t, "reopen", rng, 3, got, want)
	}
}
