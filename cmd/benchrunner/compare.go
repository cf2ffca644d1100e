package main

// Baseline comparison: -compare diffs a fresh run's records against the
// committed bench/BASELINE.json, turning the BENCH_*.json trajectory
// into an enforced contract instead of an archive. Gated metrics fail
// the run when they regress more than regressionTolerance over the
// baseline; wall-clock and ns/op are reported but never gated, because
// the baseline was captured on different hardware. See
// docs/PERFORMANCE.md for how to read and refresh the baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// regressionTolerance is the fractional headroom a gated metric gets
// over its baseline value before the comparison fails: work counters
// drift slightly under parallel scheduling and allocation counts under
// map growth, so an exact match would flap.
const regressionTolerance = 0.20

// Absolute slack floors keep the relative gate from flapping on tiny
// baselines (a 4-alloc benchmark must not fail because it hit 5).
const (
	allocsSlack = 16      // allocs/op
	bytesSlack  = 4096    // B/op
	countSlack  = 64      // work counters (regions, LP, QP)
	mallocSlack = 100_000 // whole-experiment mallocs
	heapSlack   = 1 << 22 // whole-experiment alloc_bytes (4 MiB)
)

// baseline is the committed reference trajectory: one record per
// experiment, in the same schema the runner writes to BENCH_<id>.json.
type baseline struct {
	Note    string   `json:"note"`
	Records []record `json:"records"`
}

// loadBaseline reads and validates a baseline file.
func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(b.Records) == 0 {
		return nil, fmt.Errorf("baseline %s holds no records", path)
	}
	return &b, nil
}

// gate checks one gated metric: fresh may exceed base by the relative
// tolerance or the absolute slack, whichever is larger. It returns a
// failure description, or "" when the metric passes.
func gate(name string, fresh, base float64, slack float64) string {
	limit := base * (1 + regressionTolerance)
	if base+slack > limit {
		limit = base + slack
	}
	if fresh > limit {
		return fmt.Sprintf("%s regressed: %.4g > %.4g (baseline %.4g, tolerance %.0f%% or +%.4g)",
			name, fresh, limit, base, regressionTolerance*100, slack)
	}
	return ""
}

// compareRecord diffs one experiment's fresh record against its
// baseline record and returns the failures.
func compareRecord(fresh, base record) []string {
	var fails []string
	add := func(msg string) {
		if msg != "" {
			fails = append(fails, fmt.Sprintf("%s: %s", fresh.ID, msg))
		}
	}
	add(gate("regions_processed", float64(fresh.RegionsProcessed), float64(base.RegionsProcessed), countSlack))
	add(gate("lp_calls", float64(fresh.LPCalls), float64(base.LPCalls), countSlack))
	add(gate("qp_calls", float64(fresh.QPCalls), float64(base.QPCalls), countSlack))
	if base.AllocBytes > 0 {
		add(gate("alloc_bytes", float64(fresh.AllocBytes), float64(base.AllocBytes), heapSlack))
		add(gate("mallocs", float64(fresh.Mallocs), float64(base.Mallocs), mallocSlack))
	}
	fails = append(fails, compareAllocRows(fresh, base)...)
	fails = append(fails, comparePatchRows(fresh, base)...)
	fails = append(fails, compareWatchRows(fresh, base)...)
	fails = append(fails, compareSketchRows(fresh)...)
	return fails
}

// sketchRows extracts the sketch experiment's per-shard-count rows
// (shards, gate hits, skipped, violations, certified, fallbacks,
// approx ns, exact ns, speedup) as
// shards -> [gateHits, skipped, violations, certified, fallbacks, approxNS, exactNS].
func sketchRows(r record) map[string][7]float64 {
	out := make(map[string][7]float64)
	for _, t := range r.Tables {
		if t.ID != "Sketch" {
			continue
		}
		for _, row := range t.Rows {
			if len(row) < 9 {
				continue
			}
			var v [7]float64
			ok := true
			for i := 0; i < 7; i++ {
				f, err := strconv.ParseFloat(row[i+1], 64)
				if err != nil {
					ok = false
					break
				}
				v[i] = f
			}
			if ok {
				out[row[0]] = v
			}
		}
	}
	return out
}

// compareSketchRows gates the sketch experiment on its absolute
// contracts, which need no baseline record: a gated solve must be
// bit-identical to an ungated one (zero violations), the gate must
// actually certify work away on the dominated-heavy workload (nonzero
// skips), and the certified approximate path must beat uncached exact
// top-k (the entire point of the tier). The exactness and skip counts
// are deterministic under pinned seeds; the latency gate compares two
// timings from the same process on the same machine, so baseline
// hardware never enters it.
func compareSketchRows(fresh record) []string {
	var fails []string
	for shards, f := range sketchRows(fresh) {
		gateHits, skipped, violations := f[0], f[1], f[2]
		approxNS, exactNS := f[5], f[6]
		if violations != 0 {
			fails = append(fails, fmt.Sprintf("%s/shards=%s: %.0f gated solves diverged from ungated, want 0",
				fresh.ID, shards, violations))
		}
		if gateHits == 0 || skipped == 0 {
			fails = append(fails, fmt.Sprintf("%s/shards=%s: gate certified nothing on the dominated-heavy workload (hits %.0f, skipped %.0f)",
				fresh.ID, shards, gateHits, skipped))
		}
		if approxNS >= exactNS {
			fails = append(fails, fmt.Sprintf("%s/shards=%s: approx %.0f ns/op not below exact %.0f ns/op",
				fresh.ID, shards, approxNS, exactNS))
		}
	}
	return fails
}

// watchSuppressionFloor is the suppression rate the watch experiment's
// dominated-insert stream must sustain: every origin insert is provably
// region-neutral, so anything below 1.0 means the notification plane
// re-solved (or notified) for a mutation the patch plane had already
// proven silent.
const watchSuppressionFloor = 1.0

// watchRows extracts the watch experiment's rows (shards, phase,
// inserts, suppressed, evals, events, rate) keyed "shards/phase" ->
// [inserts, suppressed, evals, events, rate].
func watchRows(r record) map[string][5]float64 {
	out := make(map[string][5]float64)
	for _, t := range r.Tables {
		if t.ID != "Watch" {
			continue
		}
		for _, row := range t.Rows {
			if len(row) < 7 {
				continue
			}
			var v [5]float64
			ok := true
			for i := 0; i < 5; i++ {
				f, err := strconv.ParseFloat(row[i+2], 64)
				if err != nil {
					ok = false
					break
				}
				v[i] = f
			}
			if ok {
				out[row[0]+"/"+row[1]] = v
			}
		}
	}
	return out
}

// compareWatchRows gates the watch experiment: a dominated-insert
// stream must suppress every signal (zero re-solves, zero events) and
// the cracking stream must actually deliver; re-evaluation counts must
// not regress over the baseline. The counts are deterministic (pinned
// seeds, synchronous suppression accounting), so the gates cannot flap.
func compareWatchRows(fresh, base record) []string {
	baseRows := watchRows(base)
	var fails []string
	for key, f := range watchRows(fresh) {
		inserts, suppressed, evals, events, rate := f[0], f[1], f[2], f[3], f[4]
		switch {
		case strings.HasSuffix(key, "/dominated"):
			if rate < watchSuppressionFloor {
				fails = append(fails, fmt.Sprintf("%s/%s: suppression rate %.3f below the %.3f floor (%.0f of %.0f inserts)",
					fresh.ID, key, rate, watchSuppressionFloor, suppressed, inserts))
			}
			if evals != 0 {
				fails = append(fails, fmt.Sprintf("%s/%s: dominated stream ran %.0f re-solves, want 0", fresh.ID, key, evals))
			}
			if events != 0 {
				fails = append(fails, fmt.Sprintf("%s/%s: dominated stream delivered %.0f events, want 0", fresh.ID, key, events))
			}
		case strings.HasSuffix(key, "/cracking"):
			if events == 0 {
				fails = append(fails, fmt.Sprintf("%s/%s: cracking stream delivered no events", fresh.ID, key))
			}
			if b, ok := baseRows[key]; ok {
				if msg := gate("watch_evals", evals, b[2], countSlack); msg != "" {
					fails = append(fails, fmt.Sprintf("%s/%s: %s", fresh.ID, key, msg))
				}
			}
		}
	}
	return fails
}

// patchSpeedupFloor is the minimum cold-scored / patch-scored ratio the
// patch experiment must sustain: patched post-insert lookups must score
// at least this many times fewer options than drop-and-recompute.
const patchSpeedupFloor = 5.0

// patchRows extracts the patch experiment's per-shard-count rows
// (shards, entries, patch scored, cold scored, ratio, untouched drops)
// as shards -> [entries, patchScored, coldScored, ratio, drops].
func patchRows(r record) map[string][5]float64 {
	out := make(map[string][5]float64)
	for _, t := range r.Tables {
		if t.ID != "Patch" {
			continue
		}
		for _, row := range t.Rows {
			if len(row) < 6 {
				continue
			}
			var v [5]float64
			ok := true
			for i := 0; i < 5; i++ {
				f, err := strconv.ParseFloat(row[i+1], 64)
				if err != nil {
					ok = false
					break
				}
				v[i] = f
			}
			if ok {
				out[row[0]] = v
			}
		}
	}
	return out
}

// comparePatchRows gates the patch experiment: the scored-options ratio
// must stay above the absolute floor, a dominated insert must drop
// nothing, and the patch-side scored count must not regress over the
// baseline. The counts are deterministic (pinned seeds, exact work
// accounting), so the gates cannot flap on machine noise.
func comparePatchRows(fresh, base record) []string {
	baseRows := patchRows(base)
	var fails []string
	for shards, f := range patchRows(fresh) {
		if f[3] < patchSpeedupFloor {
			fails = append(fails, fmt.Sprintf("%s/shards=%s: scored ratio %.1f below the %.0fx floor",
				fresh.ID, shards, f[3], patchSpeedupFloor))
		}
		if f[4] != 0 {
			fails = append(fails, fmt.Sprintf("%s/shards=%s: untouched insert dropped %.0f cache entries, want 0",
				fresh.ID, shards, f[4]))
		}
		if b, ok := baseRows[shards]; ok {
			if msg := gate("patch_scored", f[1], b[1], countSlack); msg != "" {
				fails = append(fails, fmt.Sprintf("%s/shards=%s: %s", fresh.ID, shards, msg))
			}
		}
	}
	return fails
}

// allocRows extracts the alloc experiment's per-benchmark rows
// (bench, ns/op, B/op, allocs/op) as name -> [ns, bytes, allocs].
func allocRows(r record) map[string][3]float64 {
	out := make(map[string][3]float64)
	for _, t := range r.Tables {
		if t.ID != "Alloc" {
			continue
		}
		for _, row := range t.Rows {
			if len(row) < 4 {
				continue
			}
			ns, err1 := strconv.ParseFloat(row[1], 64)
			bpo, err2 := strconv.ParseFloat(row[2], 64)
			apo, err3 := strconv.ParseFloat(row[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				continue
			}
			out[row[0]] = [3]float64{ns, bpo, apo}
		}
	}
	return out
}

// compareAllocRows gates B/op and allocs/op per benchmark row of the
// alloc experiment. ns/op is machine-dependent and never gated. Rows
// present only on one side are skipped (new benchmarks enter the gate
// when the baseline is refreshed).
func compareAllocRows(fresh, base record) []string {
	baseRows := allocRows(base)
	if len(baseRows) == 0 {
		return nil
	}
	var fails []string
	for name, f := range allocRows(fresh) {
		b, ok := baseRows[name]
		if !ok {
			continue
		}
		if msg := gate("B/op", f[1], b[1], bytesSlack); msg != "" {
			fails = append(fails, fmt.Sprintf("%s/%s: %s", fresh.ID, name, msg))
		}
		if msg := gate("allocs/op", f[2], b[2], allocsSlack); msg != "" {
			fails = append(fails, fmt.Sprintf("%s/%s: %s", fresh.ID, name, msg))
		}
	}
	return fails
}

// compareAgainstBaseline diffs the run's records against the baseline
// file and returns an error when any gated metric regressed. Fresh
// experiments without a baseline record (and vice versa) are reported
// as skipped, so adding an experiment does not break CI until the
// baseline is refreshed to cover it.
func compareAgainstBaseline(path string, fresh []record, w io.Writer) error {
	b, err := loadBaseline(path)
	if err != nil {
		return err
	}
	byID := make(map[string]record, len(b.Records))
	for _, r := range b.Records {
		byID[r.ID] = r
	}
	var fails []string
	compared := 0
	fmt.Fprintf(w, "# baseline comparison vs %s\n", path)
	for _, f := range fresh {
		base, ok := byID[f.ID]
		if !ok {
			fmt.Fprintf(w, "  %-8s not in baseline — skipped (refresh the baseline to gate it)\n", f.ID)
			continue
		}
		compared++
		rf := compareRecord(f, base)
		fails = append(fails, rf...)
		status := "ok"
		if len(rf) > 0 {
			status = fmt.Sprintf("REGRESSED (%d metrics)", len(rf))
		}
		fmt.Fprintf(w, "  %-8s %s  (wall %.2fs vs baseline %.2fs — advisory)\n", f.ID, status, f.WallSeconds, base.WallSeconds)
	}
	if compared == 0 {
		if len(fresh) == 0 {
			return fmt.Errorf("no experiment of this run appears in baseline %s", path)
		}
		// Every record of this run is new to the baseline: advisory, not
		// an error, so a branch introducing an experiment can run it under
		// -compare before the baseline is refreshed to cover it.
		fmt.Fprintf(w, "  all %d records are new to the baseline — advisory only (refresh the baseline to gate them)\n", len(fresh))
		if len(fails) > 0 {
			return fmt.Errorf("%d gated metrics regressed >%.0f%% vs %s", len(fails), regressionTolerance*100, path)
		}
		return nil
	}
	for _, msg := range fails {
		fmt.Fprintf(w, "  FAIL %s\n", msg)
	}
	if len(fails) > 0 {
		return fmt.Errorf("%d gated metrics regressed >%.0f%% vs %s", len(fails), regressionTolerance*100, path)
	}
	fmt.Fprintf(w, "  all gated metrics within tolerance\n")
	return nil
}
