package toprr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"toprr/internal/store"
	"toprr/internal/vec"
)

// tenantPts builds a deterministic dataset of n options in [0,1]^3,
// varied by seed so tenants are distinguishable.
func tenantPts(seed int64, n int) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	}
	return pts
}

// tenantQuery is a cheap query valid for any 3-dimensional tenant.
func tenantQuery() Query {
	return Query{K: 2, WR: PrefBox(vec.Of(0.2, 0.2), vec.Of(0.3, 0.3))}
}

// TestRegistryCreateGetDropList drives the basic lifecycle on a
// memory-only registry.
func TestRegistryCreateGetDropList(t *testing.T) {
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	a, err := r.Create("alpha", tenantPts(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("alpha", tenantPts(1, 20)); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("duplicate create = %v, want ErrDatasetExists", err)
	}
	if _, err := r.Create("bad/name", tenantPts(1, 20)); err == nil {
		t.Fatal("create accepted a path-escaping name")
	}
	b, err := r.Create("beta", tenantPts(2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("tenants share an engine")
	}

	// Mutations are isolated per tenant.
	ctx := context.Background()
	if _, err := a.Apply(ctx, []Op{Insert(vec.Of(0.5, 0.5, 0.5))}); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != 2 || b.Generation() != 1 {
		t.Fatalf("generations = %d/%d, want 2/1", a.Generation(), b.Generation())
	}
	if a.Len() != 21 || b.Len() != 30 {
		t.Fatalf("lens = %d/%d, want 21/30", a.Len(), b.Len())
	}

	got, err := r.Get("alpha")
	if err != nil || got != a {
		t.Fatalf("Get(alpha) = %v, %v", got, err)
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("Get(missing) = %v, want ErrUnknownDataset", err)
	}

	infos := r.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" || !infos[0].Open {
		t.Fatalf("List = %+v", infos)
	}

	if err := r.Drop("beta"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("beta"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("double drop = %v, want ErrUnknownDataset", err)
	}
	if got := r.List(); len(got) != 1 {
		t.Fatalf("List after drop = %+v", got)
	}

	// Open = get-or-create.
	if eng, err := r.Open("alpha", nil); err != nil || eng != a {
		t.Fatalf("Open(existing) = %v, %v", eng, err)
	}
	if eng, err := r.Open("gamma", tenantPts(3, 10)); err != nil || eng.Len() != 10 {
		t.Fatalf("Open(new) = %v, %v", eng, err)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("alpha"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("Get after Close = %v, want ErrRegistryClosed", err)
	}
}

// TestRegistryMemoryRejectsTTL: idle eviction without a root would
// destroy tenants, so construction refuses it.
func TestRegistryMemoryRejectsTTL(t *testing.T) {
	if _, err := NewRegistry(WithIdleTTL(time.Minute)); err == nil {
		t.Fatal("memory-only registry accepted an idle TTL")
	}
}

// TestRegistryDiscoveryAndLazyOpen: a durable registry discovers the
// datasets a previous process left under its root and opens each
// lazily, recovering its generation and contents; Drop removes the
// directory.
func TestRegistryDiscoveryAndLazyOpen(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()

	r1, err := NewRegistry(WithRegistryRoot(root))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r1.Create("alpha", tenantPts(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Create("beta", tenantPts(2, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(ctx, []Op{Insert(vec.Of(0.9, 0.9, 0.9)), Delete(0)}); err != nil {
		t.Fatal(err)
	}
	wantPts := a.Scorer().Points()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh registry over the same root knows both datasets without
	// opening them.
	r2, err := NewRegistry(WithRegistryRoot(root))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	infos := r2.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("discovered = %+v", infos)
	}
	for _, info := range infos {
		if info.Open {
			t.Fatalf("dataset %s open before first request", info.Name)
		}
	}

	// First request lazily recovers the dataset.
	a2, err := r2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Generation() != 2 || a2.Len() != len(wantPts) {
		t.Fatalf("recovered generation %d with %d options, want 2 with %d", a2.Generation(), a2.Len(), len(wantPts))
	}
	got := a2.Scorer().Points()
	for i := range wantPts {
		if !got[i].Equal(wantPts[i], 0) {
			t.Fatalf("slot %d = %v, want %v", i, got[i], wantPts[i])
		}
	}

	if err := r2.Drop("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "beta")); !os.IsNotExist(err) {
		t.Fatalf("dropped dataset dir survives: %v", err)
	}
	// The name is free again.
	if _, err := r2.Create("beta", tenantPts(4, 5)); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryIdleEviction: an engine untouched past the TTL is closed
// (List reports it evicted), and the next request transparently reopens
// it from disk with its mutations intact.
func TestRegistryIdleEviction(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(WithRegistryRoot(root), WithIdleTTL(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	a, err := r.Create("alpha", tenantPts(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(context.Background(), []Op{Insert(vec.Of(0.5, 0.6, 0.7))}); err != nil {
		t.Fatal(err)
	}

	// The janitor (or an explicit sweep) evicts once the TTL passes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.EvictIdle()
		if infos := r.List(); len(infos) == 1 && !infos[0].Open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset never evicted: %+v", r.List())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Closed engine: reads still serve, writes refuse.
	if _, err := a.Apply(context.Background(), []Op{Insert(vec.Of(0.1, 0.2, 0.3))}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply on evicted engine = %v, want ErrClosed", err)
	}

	// Reopen on demand: same data, and a fresh engine instance.
	a2, err := r.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a {
		t.Fatal("eviction did not replace the engine instance")
	}
	if a2.Generation() != 2 || a2.Len() != 21 {
		t.Fatalf("reopened at generation %d with %d options, want 2 with 21", a2.Generation(), a2.Len())
	}
	if _, err := a2.Apply(context.Background(), []Op{Insert(vec.Of(0.1, 0.2, 0.3))}); err != nil {
		t.Fatalf("Apply after reopen: %v", err)
	}

	// An Acquire hold pins the tenant against eviction.
	eng, release, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := r.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d engines under an Acquire hold", n)
	}
	if _, err := eng.Apply(context.Background(), []Op{Insert(vec.Of(0.4, 0.4, 0.4))}); err != nil {
		t.Fatalf("Apply under hold: %v", err)
	}
	release()
	release() // idempotent
}

// TestRegistryCacheBudget: the process-wide cache budget re-apportions
// across resident engines as tenants come and go, and the sum of the
// shares never exceeds the budget.
func TestRegistryCacheBudget(t *testing.T) {
	const budget, entries = 120, 1000
	root := t.TempDir()
	// The TTL must outlast a durable Create on a slow disk, or the
	// janitor evicts a tenant between a Create and the share check.
	r, err := NewRegistry(
		WithRegistryRoot(root),
		WithIdleTTL(250*time.Millisecond),
		WithCacheBudget(budget, entries))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	checkShares := func(wantOpen, wantShare int) {
		t.Helper()
		open, sum := 0, 0
		for _, ds := range r.Stats() {
			if !ds.Open {
				continue
			}
			open++
			sum += ds.MaxConfigs
			if ds.MaxConfigs != wantShare {
				t.Errorf("%s share = %d, want %d", ds.Name, ds.MaxConfigs, wantShare)
			}
		}
		if open != wantOpen {
			t.Errorf("open tenants = %d, want %d", open, wantOpen)
		}
		if sum > budget {
			t.Errorf("shares sum to %d, over budget %d", sum, budget)
		}
	}

	a, err := r.Create("a", tenantPts(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	checkShares(1, budget)
	if _, entriesGot := a.CacheLimits(); entriesGot != entries {
		t.Fatalf("entry cap = %d, want %d", entriesGot, entries)
	}

	if _, err := r.Create("b", tenantPts(2, 10)); err != nil {
		t.Fatal(err)
	}
	checkShares(2, budget/2)
	if _, err := r.Create("c", tenantPts(3, 10)); err != nil {
		t.Fatal(err)
	}
	checkShares(3, budget/3)

	if err := r.Drop("c"); err != nil {
		t.Fatal(err)
	}
	checkShares(2, budget/2)

	// Evict everything; reopening one tenant grants it the whole budget.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.EvictIdle()
		open := 0
		for _, ds := range r.Stats() {
			if ds.Open {
				open++
			}
		}
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenants never evicted: %+v", r.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	checkShares(1, budget)
}

// TestRegistryConcurrent hammers one durable registry from many
// goroutines — solves, mutations, Acquire holds, creates, drops and
// idle eviction all interleaved — under -race. Engines held via Acquire
// must never refuse an Apply: eviction skips pinned tenants.
func TestRegistryConcurrent(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(
		WithRegistryRoot(root),
		WithIdleTTL(5*time.Millisecond),
		WithCacheBudget(64, 1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	names := []string{"a", "b", "c"}
	for i, name := range names {
		if _, err := r.Create(name, tenantPts(int64(i+1), 25)); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 30
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Per-dataset traffic: acquire, solve, mutate, release, repeat.
	for w := 0; w < len(names)*2; w++ {
		name := names[w%len(names)]
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				eng, release, err := r.Acquire(name)
				if err != nil {
					fail(fmt.Errorf("acquire %s: %w", name, err))
					return
				}
				if _, err := eng.Solve(ctx, tenantQuery()); err != nil {
					fail(fmt.Errorf("solve %s: %w", name, err))
				}
				if _, err := eng.Apply(ctx, []Op{Insert(vec.Of(rng.Float64(), rng.Float64(), rng.Float64()))}); err != nil {
					fail(fmt.Errorf("apply %s: %w", name, err))
				}
				release()
				if i%7 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(int64(w + 100))
	}

	// Churn: transient datasets created and dropped.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			name := fmt.Sprintf("tmp-%d", i%3)
			if _, err := r.Open(name, tenantPts(int64(i+50), 8)); err != nil {
				fail(fmt.Errorf("open %s: %w", name, err))
				continue
			}
			if err := r.Drop(name); err != nil && !errors.Is(err, ErrUnknownDataset) {
				fail(fmt.Errorf("drop %s: %w", name, err))
			}
		}
	}()

	// Evictor: sweeps constantly while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			r.EvictIdle()
			r.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every long-lived dataset took all its mutations: 25 bootstrap
	// options + 2 writers x iters inserts each.
	for _, name := range names {
		eng, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := 25 + 2*iters; eng.Len() != want {
			t.Errorf("%s has %d options, want %d", name, eng.Len(), want)
		}
	}

	// The shares still respect the budget after all the churn.
	sum := 0
	for _, ds := range r.Stats() {
		if ds.Open {
			sum += ds.MaxConfigs
		}
	}
	if sum > 64 {
		t.Errorf("post-churn shares sum to %d, over budget 64", sum)
	}
}

// TestRegistryStateVisibleToStore: the registry's on-disk layout is
// exactly the store-level contract — one subdirectory per dataset, each
// independently discoverable.
func TestRegistryStateVisibleToStore(t *testing.T) {
	root := t.TempDir()
	r, err := NewRegistry(WithRegistryRoot(root))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, name := range []string{"x", "y"} {
		if _, err := r.Create(name, tenantPts(int64(i+1), 5)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := store.DiscoverDatasets(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("DiscoverDatasets = %v", names)
	}
}

// TestRegistryRefusesFlatRoot: a durable registry over a root that
// holds one store's files directly (snapshots and WAL under the root
// itself, not under <root>/<dataset>/) fails to open. The refusal names
// a store file and the directory to move it into, and it leaves the
// root exactly as it found it.
func TestRegistryRefusesFlatRoot(t *testing.T) {
	root := t.TempDir()
	flat, err := store.Open(store.PersistConfig{Dir: root}, tenantPts(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := flat.Apply([]Op{Insert(vec.Of(0.5, 0.5, 0.5))}); err != nil {
		t.Fatal(err)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, root)

	r, err := NewRegistry(WithRegistryRoot(root))
	if err == nil {
		r.Close()
		t.Fatal("NewRegistry opened a root holding store files directly")
	}
	msg := err.Error()
	if !strings.Contains(msg, "snap-") && !strings.Contains(msg, "wal-") {
		t.Errorf("refusal %q names no store file", msg)
	}
	if !strings.Contains(msg, filepath.Join(root, "default")) {
		t.Errorf("refusal %q does not say where the files belong", msg)
	}
	if _, err := os.Stat(filepath.Join(root, "default")); !os.IsNotExist(err) {
		t.Fatalf("refused open created <root>/default (stat: %v)", err)
	}
	after := readTree(t, root)
	if len(after) != len(before) {
		t.Fatalf("root holds %d files after the refusal, %d before", len(after), len(before))
	}
	for name, data := range before {
		if got, ok := after[name]; !ok || !bytes.Equal(got, data) {
			t.Fatalf("%s changed by the refused open", name)
		}
	}
}

// readTree maps every file under root (by relative path) to its bytes.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
