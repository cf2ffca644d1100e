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

// snapshotReserved reads the reserved header field of a snapshot file.
func snapshotReserved(t *testing.T, path string) uint32 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(data[len(snapMagic)+24:])
}

// setSnapshotReserved rewrites the reserved header field of a snapshot
// file and its checksum, as a store that kept a shard count there did.
func setSnapshotReserved(t *testing.T, path string, v uint32) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	payload := data[len(snapMagic) : len(data)-4]
	le.PutUint32(payload[24:], v)
	le.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReservedFieldIgnored: a directory whose base snapshot
// records a shard count (4) in the header field that is now reserved,
// plus a WAL tail, opens to the same generation and options, and the
// next compaction writes the field as 0.
func TestSnapshotReservedFieldIgnored(t *testing.T) {
	dir := t.TempDir()
	pts := []vec.Vector{vec.Of(0.1, 0.2), vec.Of(0.3, 0.4), vec.Of(0.6, 0.1)}
	if err := writeSnapshot(dir, 1, 0, pts); err != nil {
		t.Fatal(err)
	}
	snap1 := filepath.Join(dir, snapshotName(1))
	setSnapshotReserved(t, snap1, 4)

	cfg := PersistConfig{Dir: dir, CompactOps: 1 << 30, CompactBytes: 1 << 30, SegmentBytes: 1 << 30}
	s, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []vec.Vector{vec.Of(0.5, 0.5), vec.Of(0.9, 0.2)} {
		if _, _, err := s.Apply([]Op{Insert(p)}); err != nil {
			t.Fatal(err)
		}
	}
	wantGen, want := s.Generation(), s.Snapshot().Scorer.Points()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotReserved(t, snap1); got != 4 {
		t.Fatalf("base snapshot reserved field = %d, want the old layout's 4", got)
	}

	cfg.CompactOps = 1
	re, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Generation() != wantGen {
		t.Fatalf("recovered generation %d, want %d", re.Generation(), wantGen)
	}
	got := re.Snapshot().Scorer.Points()
	if len(got) != len(want) {
		t.Fatalf("recovered %d options, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i], 0) {
			t.Fatalf("recovered option %d = %v, want %v", i, got[i], want[i])
		}
	}

	if _, _, err := re.Apply([]Op{Insert(vec.Of(0.3, 0.3))}); err != nil {
		t.Fatal(err)
	}
	compacted := re.PersistStats().LastCompaction
	if compacted != wantGen+1 {
		t.Fatalf("compaction watermark = %d, want %d", compacted, wantGen+1)
	}
	if got := snapshotReserved(t, filepath.Join(dir, snapshotName(compacted))); got != 0 {
		t.Fatalf("compacted snapshot reserved field = %d, want 0", got)
	}
}

// TestSnapshotOldFormatRefused: a TOPRRSN1 snapshot (the format
// before the reserved header word) is not read. Open fails on a
// directory whose only snapshot is one, and leaves that file and the
// WAL untouched.
func TestSnapshotOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	pts := []vec.Vector{vec.Of(0.1, 0.2), vec.Of(0.3, 0.4)}

	// Hand-craft the old format: magic TOPRRSN1, 24-byte header
	// without the reserved word, row-major points, trailing CRC.
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

	s, err := Open(PersistConfig{Dir: dir}, nil)
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
