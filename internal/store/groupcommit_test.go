package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

// TestWALGroupCommitCoalesces: one leader fsync covers every record
// appended before it, so waiters behind the leader finish without
// issuing their own flush. Deterministic: all appends land before any
// waitSync.
func TestWALGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, nil, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	var tickets []uint64
	for i := 0; i < 5; i++ {
		rec := AppliedOp{Seq: uint64(i + 1), Gen: 2, Op: Insert(vec.Of(0.5, 0.5))}
		tk, err := w.append(encodeBatch(2, uint64(i+1), []AppliedOp{rec}))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}

	// The highest ticket leads one flush; every lower ticket must then
	// return under the watermark without another fsync.
	if err := w.waitSync(tickets[len(tickets)-1]); err != nil {
		t.Fatal(err)
	}
	after := w.syncs()
	if after != 1 {
		t.Fatalf("leader flush issued %d fsyncs, want 1", after)
	}
	var wg sync.WaitGroup
	for _, tk := range tickets[:len(tickets)-1] {
		wg.Add(1)
		go func(tk uint64) {
			defer wg.Done()
			if err := w.waitSync(tk); err != nil {
				t.Errorf("waitSync(%d): %v", tk, err)
			}
		}(tk)
	}
	wg.Wait()
	if got := w.syncs(); got != after {
		t.Fatalf("covered waiters issued %d extra fsyncs", got-after)
	}
}

// TestStoreConcurrentApply: concurrent Apply batches on a durable store
// publish gapless generations with strictly ordered log sequence
// numbers, and the WAL replays the identical dataset.
func TestStoreConcurrentApply(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(PersistConfig{Dir: dir}, []vec.Vector{vec.Of(0.1, 0.2), vec.Of(0.3, 0.4)})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 8
		batches = 15
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				x := float64(w*batches+b) / float64(writers*batches)
				if _, _, err := s.Apply([]Op{Insert(vec.Of(x, 1-x))}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := s.Generation(), Generation(1+writers*batches); got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	log := s.Log(0)
	for i := 1; i < len(log); i++ {
		if log[i].Seq != log[i-1].Seq+1 {
			t.Fatalf("log sequence gap: %d then %d", log[i-1].Seq, log[i].Seq)
		}
		if log[i].Gen < log[i-1].Gen {
			t.Fatalf("log generations out of order: %d then %d", log[i-1].Gen, log[i].Gen)
		}
	}
	want := s.Snapshot().Scorer.Points()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(PersistConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Snapshot().Scorer.Points()
	if len(got) != len(want) {
		t.Fatalf("recovered %d options, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i], 0) {
			t.Fatalf("recovered option %d differs", i)
		}
	}
	if re.Generation() != Generation(1+writers*batches) {
		t.Fatalf("recovered generation %d", re.Generation())
	}
}

// TestSnapshotShardCountRoundtrip: the shard count written into the
// base snapshot wins over the reopening configuration, so a dataset
// keeps its layout across restarts.
func TestSnapshotShardCountRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(PersistConfig{Dir: dir, Shards: 5}, []vec.Vector{vec.Of(0.1, 0.2), vec.Of(0.3, 0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 5 {
		t.Fatalf("fresh store shards = %d, want 5", s.Shards())
	}
	if _, _, err := s.Apply([]Op{Insert(vec.Of(0.5, 0.5))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(PersistConfig{Dir: dir, Shards: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 5 {
		t.Fatalf("reopened shards = %d, want persisted 5", re.Shards())
	}
	if re.Len() != 3 {
		t.Fatalf("reopened %d options, want 3 (WAL replay on top of the sharded snapshot)", re.Len())
	}
}

// TestSnapshotOldFormatRefused: a TOPRRSN1 snapshot (the pre-shard
// format, without the shard-count word) is not read. Open fails on a
// directory whose only snapshot is one, and leaves that file and the
// WAL untouched.
func TestSnapshotOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	pts := []vec.Vector{vec.Of(0.1, 0.2), vec.Of(0.3, 0.4)}

	// Hand-craft the old format: magic TOPRRSN1, 24-byte header
	// without the shard word, row-major points, trailing CRC.
	d := 2
	payload := make([]byte, 8+8+4+4+len(pts)*d*8)
	le := binary.LittleEndian
	le.PutUint64(payload[0:], 1)
	le.PutUint64(payload[8:], 0)
	le.PutUint32(payload[16:], uint32(len(pts)))
	le.PutUint32(payload[20:], uint32(d))
	off := 24
	for _, p := range pts {
		for _, x := range p {
			le.PutUint64(payload[off:], math.Float64bits(x))
			off += 8
		}
	}
	buf := append([]byte("TOPRRSN1"), payload...)
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	snapPath := filepath.Join(dir, snapshotName(1))
	if err := os.WriteFile(snapPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// A WAL segment beside it, as the old store left one.
	walPath := filepath.Join(dir, segmentName(1))
	wal := []byte(walMagic + "old batches")
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(PersistConfig{Dir: dir, Shards: 4}, nil)
	if err == nil {
		s.Close()
		t.Fatal("Open read a TOPRRSN1 snapshot")
	}
	if !strings.Contains(err.Error(), "not a snapshot file") {
		t.Fatalf("Open error = %v, want the not-a-snapshot refusal", err)
	}
	for path, want := range map[string][]byte{snapPath: buf, walPath: wal} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s after the refused open: %v", filepath.Base(path), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the refused open", filepath.Base(path))
		}
	}
}

// TestDeltaShardsTouched: a sharded store routes each batch to the
// owning shards — an insert touches exactly the new option's shard, an
// update the shards of the old and new contents, and a swap-delete the
// shards of the deleted and relocated options.
func TestDeltaShardsTouched(t *testing.T) {
	const shards = 8
	pts := []vec.Vector{
		vec.Of(0.10, 0.90),
		vec.Of(0.20, 0.80),
		vec.Of(0.30, 0.70),
		vec.Of(0.40, 0.60),
	}
	s, err := NewSharded(pts, shards)
	if err != nil {
		t.Fatal(err)
	}

	contains := func(list []int, x int) bool {
		for _, v := range list {
			if v == x {
				return true
			}
		}
		return false
	}

	// Insert: exactly the new option's shard.
	p := vec.Of(0.55, 0.45)
	_, delta, err := s.Apply([]Op{Insert(p)})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.ShardsTouched) != 1 || delta.ShardsTouched[0] != topk.ShardOfPoint(p, shards) {
		t.Fatalf("insert touched %v, want [%d]", delta.ShardsTouched, topk.ShardOfPoint(p, shards))
	}

	// Update slot 0: old and new contents' shards.
	oldShard := topk.ShardOfPoint(pts[0], shards)
	repl := vec.Of(0.77, 0.23)
	_, delta, err = s.Apply([]Op{Update(0, repl)})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(delta.ShardsTouched, oldShard) || !contains(delta.ShardsTouched, topk.ShardOfPoint(repl, shards)) {
		t.Fatalf("update touched %v, want old shard %d and new shard %d", delta.ShardsTouched, oldShard, topk.ShardOfPoint(repl, shards))
	}

	// Swap-delete slot 1: the deleted option's shard and the relocated
	// (former last) option's shard.
	cur := s.Snapshot().Scorer.Points()
	deleted := topk.ShardOfPoint(cur[1], shards)
	moved := topk.ShardOfPoint(cur[len(cur)-1], shards)
	_, delta, err = s.Apply([]Op{Delete(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(delta.ShardsTouched, deleted) || !contains(delta.ShardsTouched, moved) {
		t.Fatalf("delete touched %v, want deleted shard %d and moved shard %d", delta.ShardsTouched, deleted, moved)
	}

	// Unsharded stores route nothing.
	u, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err = u.Apply([]Op{Insert(p)})
	if err != nil {
		t.Fatal(err)
	}
	if delta.ShardsTouched != nil {
		t.Fatalf("unsharded store reported ShardsTouched %v", delta.ShardsTouched)
	}
}
