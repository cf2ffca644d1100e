// Command toprrd is the TopRR serving daemon: it serves a registry of
// named datasets — each an independently-mutating, snapshot-isolated
// engine — over a JSON HTTP API until interrupted, then drains
// in-flight requests and exits.
//
//	toprrd -data laptops.csv -addr :8080
//	toprrd -dist ANTI -n 50000 -d 4 -req-timeout 10s
//	toprrd -data-dir /var/lib/toprrd -dist IND -n 50000 -d 4 -idle-ttl 15m
//
// Endpoints:
//
//	GET    /v1/healthz                    liveness probe + build info (version, Go toolchain)
//	GET    /v1/datasets                   list datasets
//	POST   /v1/datasets                   create a dataset (201 + Location) {"name":..., "points":[[..]]} or {"name":...,"dist":"IND","n":1000,"d":3}
//	DELETE /v1/datasets/{name}            drop a dataset (engine closed, directory removed)
//	POST   /v1/datasets/{name}/solve      one TopRR query        {"k":3,"lo":[..],"hi":[..]}
//	POST   /v1/datasets/{name}/batch      many queries, one snapshot {"queries":[{...},...]}
//	POST   /v1/datasets/{name}/ops        dataset mutations      {"ops":[{"op":"insert","point":[..]},...]}
//	GET    /v1/datasets/{name}/ops        applied-ops log        ?since=<seq>
//	GET    /v1/datasets/{name}/watch      standing query: SSE stream of region deltas ?k=3&lo=..&hi=..[&debounce=50ms]
//	GET    /v1/datasets/{name}/stats      one dataset's stats
//	GET    /v1/stats                      per-dataset breakdowns + totals + work counters
//
// At boot the daemon creates the "default" dataset from -data/-dist
// when it does not already exist; it is served at
// /v1/datasets/default/… like any other. Every query pins the dataset
// generation current at arrival; mutations publish new generations
// without disturbing in-flight solves.
//
// With -data-dir the daemon is durable: each dataset owns a
// <data-dir>/<name>/ directory with its own WAL (fsynced per batch
// unless -wal-sync none) and snapshot/compaction cycle; a restart
// discovers every dataset and recovers each — lazily, on its first
// request — at the generation it crashed at. A -data-dir holding
// snapshot or WAL files directly under the root is refused at boot:
// move them into <data-dir>/default/. With -idle-ttl the daemon evicts
// datasets idle past the TTL and pages them back in from disk on
// demand. docs/PERSISTENCE.md specifies the recovery contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"toprr/internal/dataset"
	"toprr/pkg/toprr"
)

// version identifies the build in /v1/healthz; release builds override
// it via -ldflags "-X main.version=...".
var version = "dev"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "toprrd:", err)
	os.Exit(1)
}

// minBodyCap is the smallest accepted -max-body: below one KiB even a
// bare solve request cannot be expressed, so smaller values are surely
// operator error.
const minBodyCap = 1 << 10

// validateMaxBody checks a -max-body value.
func validateMaxBody(n int64) error {
	if n < minBodyCap {
		return fmt.Errorf("-max-body must be at least %d bytes, got %d", minBodyCap, n)
	}
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		data         = flag.String("data", "", "CSV dataset file bootstrapping the default dataset (default: generate synthetic)")
		dist         = flag.String("dist", "IND", "synthetic distribution when -data is absent")
		n            = flag.Int("n", 100000, "synthetic dataset size")
		d            = flag.Int("d", 4, "synthetic dimensionality")
		seed         = flag.Int64("seed", 7, "synthetic generator seed")
		reqTimeout   = flag.Duration("req-timeout", 30*time.Second, "per-request deadline (0 = none)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		maxBody      = flag.Int64("max-body", 32<<20, "request-body cap in bytes (min 1024)")
		dataDir      = flag.String("data-dir", "", "durable registry root: one <root>/<dataset>/ WAL+snapshot directory per dataset; empty = in-memory")
		walSync      = flag.String("wal-sync", "always", "WAL durability: always (fsync per batch) or none (OS page cache)")
		compactBytes = flag.Int64("compact-bytes", 0, "per-dataset WAL bytes triggering snapshot/compaction (0 = default 64MiB)")
		compactOps   = flag.Int("compact-ops", 0, "per-dataset WAL ops triggering snapshot/compaction (0 = default 32768)")
		idleTTL      = flag.Duration("idle-ttl", 0, "close datasets idle this long, reopening from disk on demand (0 = never; requires -data-dir)")
		cacheConfigs = flag.Int("cache-configs", 0, "process-wide interned top-k configuration budget shared across datasets (0 = per-dataset default)")
		cacheEntries = flag.Int("cache-entries", 0, "per-configuration memoized-vertex cap (0 = default)")
		watchCap     = flag.Int("watch-cap", 0, "standing-query subscriptions allowed per dataset (0 = engine default)")
	)
	flag.Parse()

	if err := validateMaxBody(*maxBody); err != nil {
		fatal(err)
	}
	if *idleTTL < 0 {
		fatal(fmt.Errorf("-idle-ttl must be >= 0, got %v", *idleTTL))
	}
	if *idleTTL > 0 && *dataDir == "" {
		fatal(fmt.Errorf("-idle-ttl requires -data-dir (an in-memory dataset cannot be reopened after eviction)"))
	}

	var regOpts []toprr.RegistryOption
	if *dataDir != "" {
		mode, err := toprr.ParseSyncMode(*walSync)
		if err != nil {
			fatal(fmt.Errorf("-wal-sync: %w", err))
		}
		regOpts = append(regOpts, toprr.WithRegistryPersistence(toprr.PersistConfig{
			Dir:          *dataDir,
			Sync:         mode,
			CompactBytes: *compactBytes,
			CompactOps:   *compactOps,
		}))
	}
	if *idleTTL > 0 {
		regOpts = append(regOpts, toprr.WithIdleTTL(*idleTTL))
	}
	if *cacheConfigs > 0 || *cacheEntries > 0 {
		regOpts = append(regOpts, toprr.WithCacheBudget(*cacheConfigs, *cacheEntries))
	}
	if *watchCap < 0 {
		fatal(fmt.Errorf("-watch-cap must be >= 0, got %d", *watchCap))
	}
	if *watchCap > 0 {
		regOpts = append(regOpts, toprr.WithRegistryWatchCap(*watchCap))
	}
	reg, err := toprr.NewRegistry(regOpts...)
	if err != nil {
		fatal(err)
	}

	// Ensure the default dataset exists: recovered datasets win over the
	// -data/-dist bootstrap, which only seeds a first run.
	hasDefault := false
	for _, info := range reg.List() {
		if info.Name == defaultDataset {
			hasDefault = true
		}
	}
	name := "recovered:" + *dataDir
	if !hasDefault {
		var ds *dataset.Dataset
		if *data != "" {
			f, err := os.Open(*data)
			if err != nil {
				fatal(err)
			}
			ds, err = dataset.ReadCSV(f, *data)
			f.Close()
			if err != nil {
				fatal(err)
			}
		} else {
			dd, err := dataset.ParseDistribution(*dist)
			if err != nil {
				fatal(err)
			}
			if *n <= 0 || *d < 2 {
				fatal(fmt.Errorf("need -n > 0 and -d >= 2, got -n=%d -d=%d", *n, *d))
			}
			ds = dataset.Generate(dd, *n, *d, *seed)
		}
		name = ds.Name
		if _, err := reg.Create(defaultDataset, ds.Pts); err != nil {
			fatal(err)
		}
	}
	// Open the default eagerly: it is the one tenant guaranteed to
	// exist, and boot is where a recovery error should surface, not a
	// request.
	engine, err := reg.Get(defaultDataset)
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		ps := engine.PersistStats()
		fmt.Fprintf(os.Stderr, "toprrd: registry root %s holds %d dataset(s); default at generation %d (wal %d bytes in %d segment(s), base snapshot at generation %d)\n",
			*dataDir, len(reg.List()), engine.Generation(), ps.WALBytes, ps.WALSegments, ps.LastCompaction)
	}
	srv := newHTTPServer(*addr, newServer(reg, *reqTimeout, *maxBody))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "toprrd: serving default=%s (%d options x %d attributes, generation %d) on %s\n",
		name, engine.Len(), engine.Dim(), engine.Generation(), ln.Addr())
	if err := run(ctx, srv, ln, *drain); err != nil {
		reg.Close()
		fatal(err)
	}
	if err := reg.Close(); err != nil {
		fatal(fmt.Errorf("close: %w", err))
	}
	fmt.Fprintln(os.Stderr, "toprrd: drained, bye")
}

// Connection timeouts of the daemon's http.Server. A response may take
// the per-request deadline plus writeTimeoutMargin to write, so a solve
// that runs into its deadline still delivers its 504.
const (
	readHeaderTimeout  = 5 * time.Second
	idleTimeout        = 2 * time.Minute
	writeTimeoutMargin = 10 * time.Second
)

// newHTTPServer builds the daemon's http.Server around api. The write
// timeout follows api's per-request deadline and is off when that is 0;
// watch streams clear it for their own connection.
func newHTTPServer(addr string, api *server) *http.Server {
	srv := &http.Server{
		Addr:              addr,
		Handler:           api,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if api.timeout > 0 {
		srv.WriteTimeout = api.timeout + writeTimeoutMargin
	}
	// Watch streams never end on their own; close them out when the
	// daemon drains so Shutdown doesn't wait the full budget on them.
	srv.RegisterOnShutdown(api.drainWatches)
	return srv
}

// run serves until the listener fails or ctx is cancelled, then shuts
// down gracefully: the listener closes, in-flight requests get the drain
// budget to finish.
func run(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}
