package main

// layers.go is the one place that reads the program's own counters:
// Engine.CacheStats, Engine.PersistStats, Result.Stats and toprrd's
// /v1/stats. Only the traced run calls it, so a regrouping of those
// structs cannot change an end-to-end number (see bench_test.go).

import (
	"encoding/json"
	"fmt"
	"net/http"

	"toprr/pkg/toprr"
)

// engineCounters are the cumulative engine counters the traced run
// takes deltas of.
type engineCounters struct {
	TopKHits          int   `json:"cache_topk_hits"`
	TopKMisses        int   `json:"cache_topk_misses"`
	PatchedEntries    int   `json:"cache_patched_entries"`
	UntouchedAdvances int   `json:"cache_untouched_advances"`
	GateHits          int   `json:"sketch_gate_hits"`
	GateMisses        int   `json:"sketch_gate_misses"`
	Certified         int   `json:"sketch_certified"`
	Fallbacks         int   `json:"sketch_fallbacks"`
	LiveGenerations   int   `json:"live_generations"`
	WALBytes          int64 `json:"wal_bytes"`
	WALSyncs          int64 `json:"wal_syncs"`
}

func readEngine(e *toprr.Engine) engineCounters {
	cs, ps := e.CacheStats(), e.PersistStats()
	return engineCounters{
		TopKHits:          cs.TopKHits,
		TopKMisses:        cs.TopKMisses,
		PatchedEntries:    cs.PatchedEntries,
		UntouchedAdvances: cs.UntouchedAdvances,
		GateHits:          cs.SketchGateHits,
		GateMisses:        cs.SketchGateMisses,
		Certified:         cs.SketchCertified,
		Fallbacks:         cs.SketchFallbacks,
		LiveGenerations:   cs.LiveGenerations,
		WALBytes:          ps.WALBytes,
		WALSyncs:          ps.WALSyncs,
	}
}

// readDaemon reads one dataset's counters from toprrd's /v1/stats.
func readDaemon(c *http.Client, base, name string) (engineCounters, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return engineCounters{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Datasets []struct {
			Name string `json:"name"`
			engineCounters
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return engineCounters{}, fmt.Errorf("decode /v1/stats: %w", err)
	}
	for _, ds := range body.Datasets {
		if ds.Name == name {
			return ds.engineCounters, nil
		}
	}
	return engineCounters{}, fmt.Errorf("/v1/stats lists no dataset %q", name)
}

func (a engineCounters) sub(b engineCounters) engineCounters {
	return engineCounters{
		TopKHits:          a.TopKHits - b.TopKHits,
		TopKMisses:        a.TopKMisses - b.TopKMisses,
		PatchedEntries:    a.PatchedEntries - b.PatchedEntries,
		UntouchedAdvances: a.UntouchedAdvances - b.UntouchedAdvances,
		GateHits:          a.GateHits - b.GateHits,
		GateMisses:        a.GateMisses - b.GateMisses,
		Certified:         a.Certified - b.Certified,
		Fallbacks:         a.Fallbacks - b.Fallbacks,
		LiveGenerations:   a.LiveGenerations,
		WALBytes:          a.WALBytes - b.WALBytes,
		WALSyncs:          a.WALSyncs - b.WALSyncs,
	}
}

// solveCounters are one solve's output-determined work counts.
type solveCounters struct {
	Input, Filtered, Regions, Splits, Vall int
	Queries, Misses, Lemma5, Lemma7        int
	Clips, Unique, Skips                   int
}

func readSolve(res *toprr.Result) solveCounters {
	s := res.Stats
	return solveCounters{
		Input: s.InputOptions, Filtered: s.FilteredOptions, Regions: s.Regions, Splits: s.Splits,
		Vall: s.VallSize, Queries: s.TopKQueries, Misses: s.TopKMisses, Lemma5: s.Lemma5Prunes,
		Lemma7: s.Lemma7Accepts, Clips: s.ImpactClips, Unique: s.UniqueImpacts, Skips: s.SketchSkips,
	}
}

func (a *solveCounters) add(b solveCounters) {
	a.Input += b.Input
	a.Filtered += b.Filtered
	a.Regions += b.Regions
	a.Splits += b.Splits
	a.Vall += b.Vall
	a.Queries += b.Queries
	a.Misses += b.Misses
	a.Lemma5 += b.Lemma5
	a.Lemma7 += b.Lemma7
	a.Clips += b.Clips
	a.Unique += b.Unique
	a.Skips += b.Skips
}

// layerCounts accumulates the traced half's counters.
type layerCounts struct {
	solves      int
	solve       solveCounters
	places      int
	placeCons   int
	applies     int
	appliedOps  int
	engine      engineCounters // delta over the traced half
	liveGensMax int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// put reports the counter metrics. Layers a workload does not cross
// report zero work.
func (c *layerCounts) put(rep *report) {
	n := float64(c.solves)
	s := c.solve
	e := c.engine
	rep.put("skyband.kept_frac", ratio(float64(s.Filtered), float64(s.Input)), "ratio")
	rep.put("sketch.gate_hit_frac", ratio(float64(e.GateHits), float64(e.GateHits+e.GateMisses)), "ratio")
	rep.put("sketch.certified_frac", ratio(float64(e.Certified), float64(e.Certified+e.Fallbacks)), "ratio")
	rep.put("sketch.skips_per_solve", ratio(float64(s.Skips), n), "count")
	rep.put("topk.queries_per_solve", ratio(float64(s.Queries), n), "count")
	rep.put("topk.misses_per_solve", ratio(float64(s.Misses), n), "count")
	rep.put("topk.hit_frac", ratio(float64(e.TopKHits), float64(e.TopKHits+e.TopKMisses)), "ratio")
	rep.put("topk.untouched_frac", ratio(float64(e.UntouchedAdvances), float64(c.applies)), "ratio")
	rep.put("core.regions_per_solve", ratio(float64(s.Regions), n), "count")
	rep.put("core.splits_per_solve", ratio(float64(s.Splits), n), "count")
	rep.put("core.vall_per_solve", ratio(float64(s.Vall), n), "count")
	rep.put("core.lemma5_prunes_per_solve", ratio(float64(s.Lemma5), n), "count")
	rep.put("core.lemma7_accepts_per_solve", ratio(float64(s.Lemma7), n), "count")
	rep.put("geom.clips_per_solve", ratio(float64(s.Clips), n), "count")
	rep.put("geom.unique_impacts_per_solve", ratio(float64(s.Unique), n), "count")
	rep.put("qp.place_constraints", ratio(float64(c.placeCons), float64(c.places)), "count")
	rep.put("store.wal_bytes_per_op", ratio(float64(e.WALBytes), float64(c.appliedOps)), "B")
	// Header only: on the listed workloads these read zero whatever the
	// program does (README.md).
	rep.note("topk: memo entries patched per apply %.3f", ratio(float64(e.PatchedEntries), float64(c.applies)))
	rep.note("store: wal syncs per apply %.3f", ratio(float64(e.WALSyncs), float64(c.applies)))
	rep.put("store.live_generations_max", float64(c.liveGensMax), "count")
}

// determined returns the counters a run's output fixes, which must
// repeat exactly across runs of one seed: filtered options, regions,
// Vall and clips summed over the traced solves.
func (c *layerCounts) determined() [4]int {
	return [4]int{c.solve.Filtered, c.solve.Regions, c.solve.Vall, c.solve.Clips}
}
