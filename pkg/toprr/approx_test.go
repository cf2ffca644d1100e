package toprr_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"toprr/internal/race"
	"toprr/internal/topk"
	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// exactKthScore brute-forces TopK(w) over the snapshot.
func exactKthScore(e *toprr.Engine, w vec.Vector, k int) float64 {
	sc := e.Snapshot().Scorer
	scores := make([]float64, sc.Len())
	for i := range scores {
		scores[i] = topk.ScorePoint(w, sc.Point(i))
	}
	sort.Float64s(scores)
	return scores[len(scores)-k]
}

// exactRank brute-forces the rank a hypothetical option at p would take
// at preference w: one plus the options scoring strictly above it.
func exactRank(e *toprr.Engine, w, p vec.Vector) int {
	sc := e.Snapshot().Scorer
	sq := topk.ScorePoint(w, p)
	rank := 1
	for i := 0; i < sc.Len(); i++ {
		if topk.ScorePoint(w, sc.Point(i)) > sq {
			rank++
		}
	}
	return rank
}

// randPref draws a valid reduced preference: w >= 0, Σw <= 1.
func randPref(rng *rand.Rand, m int) vec.Vector {
	w := vec.New(m)
	rem := 1.0
	for j := range w {
		w[j] = rng.Float64() * rem / float64(m)
		rem -= w[j]
	}
	return w
}

// TestApproxRankOracle: every returned interval contains the exact
// TopK(w); certified answers are exact, uncertified ones fell back and
// are exact too; the counters account for every call.
func TestApproxRankOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 4
	for _, mk := range []struct {
		name string
		pts  []vec.Vector
	}{
		{"dominated", dominatedMarket(rng, 800, d)},
		{"uniform", randomMarket(rng, 800, d)},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			engine := toprr.NewEngine(mk.pts)
			calls := 0
			for trial := 0; trial < 40; trial++ {
				w := randPref(rng, d-1)
				k := 1 + rng.Intn(20)
				est, err := engine.ApproxRank(w, k)
				if err != nil {
					t.Fatal(err)
				}
				calls++
				exact := exactKthScore(engine, w, k)
				if exact < est.Lo-1e-9 || exact > est.Hi+1e-9 {
					t.Fatalf("trial %d: exact %v outside [%v, %v] (certified=%v)", trial, exact, est.Lo, est.Hi, est.Certified)
				}
				if est.Lo != est.Hi {
					t.Fatalf("trial %d: rank interval did not collapse: [%v, %v]", trial, est.Lo, est.Hi)
				}
			}
			cs := engine.CacheStats()
			if cs.SketchCertified+cs.SketchFallbacks != calls {
				t.Fatalf("counters %d+%d != %d calls", cs.SketchCertified, cs.SketchFallbacks, calls)
			}
			if mk.name == "dominated" && cs.SketchCertified == 0 {
				t.Error("no certified answers on dominated-heavy data")
			}
		})
	}
}

// TestApproxRankFallsBackAfterMutation: an Apply advances the sketch
// plane with the store, so the very next ApproxRank still answers
// correctly (either path), and a deliberate mismatch is impossible to
// observe from the outside — the oracle holds across mutations.
func TestApproxRankAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const d = 4
	engine := toprr.NewEngine(dominatedMarket(rng, 500, d))
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		w := randPref(rng, d-1)
		k := 1 + rng.Intn(10)
		est, err := engine.ApproxRank(w, k)
		if err != nil {
			t.Fatal(err)
		}
		exact := exactKthScore(engine, w, k)
		if exact < est.Lo-1e-9 || exact > est.Hi+1e-9 {
			t.Fatalf("round %d: exact %v outside [%v, %v]", round, exact, est.Lo, est.Hi)
		}
		var ops []toprr.Op
		if round%2 == 0 {
			ops = []toprr.Op{toprr.Insert(dominatedPoint(rng, d)), toprr.Insert(dominatedPoint(rng, d))}
		} else {
			ops = []toprr.Op{toprr.Update(rng.Intn(engine.Len()), dominatedPoint(rng, d))}
		}
		if _, err := engine.Apply(ctx, ops); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApproxImpactOracle: the rank interval always contains the exact
// rank, and a certified interval decides K-membership consistently
// with it.
func TestApproxImpactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const d = 4
	engine := toprr.NewEngine(dominatedMarket(rng, 800, d))
	certified := 0
	for trial := 0; trial < 60; trial++ {
		q := toprr.ImpactQuery{
			W: randPref(rng, d-1),
			P: dominatedPoint(rng, d),
			K: 1 + rng.Intn(20),
		}
		est, err := engine.ApproxImpact(q)
		if err != nil {
			t.Fatal(err)
		}
		rank := exactRank(engine, q.W, q.P)
		if float64(rank) < est.Lo || float64(rank) > est.Hi {
			t.Fatalf("trial %d: exact rank %d outside [%v, %v]", trial, rank, est.Lo, est.Hi)
		}
		if est.Certified {
			certified++
			member := rank <= q.K
			if member != (est.Hi <= float64(q.K)) {
				t.Fatalf("trial %d: certificate decides membership %v, exact rank %d vs K=%d", trial, est.Hi <= float64(q.K), rank, q.K)
			}
		} else if est.Lo != est.Hi {
			t.Fatalf("trial %d: fallback did not return the exact rank: [%v, %v]", trial, est.Lo, est.Hi)
		}
	}
	if certified == 0 {
		t.Error("no certified impact answers on dominated-heavy data")
	}
}

// TestApproxValidation: the approximate entry points enforce the same
// contract as RankAt.
func TestApproxValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	engine := toprr.NewEngine(randomMarket(rng, 50, 3))
	if _, err := engine.ApproxRank(vec.Of(0.2, 0.2), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := engine.ApproxRank(vec.Of(0.2), 3); err == nil {
		t.Error("wrong preference dimension accepted")
	}
	if _, err := engine.ApproxRank(vec.Of(-0.1, 0.2), 3); err == nil {
		t.Error("negative preference accepted")
	}
	if _, err := engine.ApproxImpact(toprr.ImpactQuery{W: vec.Of(0.2, 0.2), P: vec.Of(0.5), K: 3}); err == nil {
		t.Error("wrong option dimension accepted")
	}
}

// TestApproxRankZeroAlloc: the warm certified path must not allocate —
// the microsecond-budget contract of the fast path.
func TestApproxRankZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(15))
	const d = 4
	engine := toprr.NewEngine(dominatedMarket(rng, 800, d))
	w := vec.Of(0.25, 0.25, 0.25)
	const k = 5

	est, err := engine.ApproxRank(w, k)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Certified {
		t.Fatal("warm-up call not certified; the zero-alloc gate needs the certified path")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := engine.ApproxRank(w, k); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm certified ApproxRank allocates %.1f objects per call, want 0", avg)
	}
}

// TestApproxRankCertifiedBeatsExact: on a dominated-heavy market (n =
// 20000, d = 4, 32 elite options) every one of 32 pinned preferences is
// certified at k = 10, and the warm certified ApproxRank is faster than
// uncached exact top-k over the same preferences.
// Both timings come from this process on this machine, so the
// comparison does not depend on the hardware.
func TestApproxRankCertifiedBeatsExact(t *testing.T) {
	if race.Enabled {
		t.Skip("timings are not meaningful under the race detector")
	}
	const (
		n, d, k     = 20000, 4, 10
		approxCalls = 512
		exactCalls  = 64
	)
	pts := dominatedMarket(rand.New(rand.NewSource(81)), n, d)
	rng := rand.New(rand.NewSource(82))
	ws := make([]vec.Vector, 32)
	for i := range ws {
		ws[i] = vec.New(d - 1)
		for j := range ws[i] {
			ws[i][j] = rng.Float64() / d
		}
	}
	engine := toprr.NewEngine(pts)
	defer engine.Close()
	for i, w := range ws {
		est, err := engine.ApproxRank(w, k)
		if err != nil {
			t.Fatal(err)
		}
		if !est.Certified {
			t.Errorf("preference %d not certified", i)
		}
	}
	start := time.Now()
	for i := 0; i < approxCalls; i++ {
		if _, err := engine.ApproxRank(ws[i%len(ws)], k); err != nil {
			t.Fatal(err)
		}
	}
	approx := time.Since(start) / approxCalls
	sc := engine.Snapshot().Scorer
	start = time.Now()
	for i := 0; i < exactCalls; i++ {
		sc.TopK(ws[i%len(ws)], k, nil)
	}
	exact := time.Since(start) / exactCalls
	t.Logf("approx %v, exact %v per call", approx, exact)
	if approx >= exact {
		t.Errorf("certified ApproxRank %v per call, not below exact top-k %v", approx, exact)
	}
}

// TestRegistrySketchesSurviveEviction: an idle-evicted tenant reopened
// on the next acquire rebuilds its sketch tier from the recovered
// snapshot — the approximate fast path works immediately after reopen.
func TestRegistrySketchesSurviveEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const d = 4
	root := t.TempDir()
	r, err := toprr.NewRegistry(toprr.WithRegistryRoot(root), toprr.WithIdleTTL(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	eng, err := r.Create("alpha", dominatedMarket(rng, 600, d))
	if err != nil {
		t.Fatal(err)
	}
	w := vec.Of(0.25, 0.25, 0.25)
	est, err := eng.ApproxRank(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Certified {
		t.Fatal("fresh tenant not certified on dominated-heavy data")
	}
	before := est

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

	eng2, release, err := r.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if eng2 == eng {
		t.Fatal("eviction did not replace the engine instance")
	}
	est2, err := eng2.ApproxRank(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !est2.Certified {
		t.Fatal("reopened tenant lost its certified fast path")
	}
	if est2.Lo != before.Lo || est2.Hi != before.Hi {
		t.Fatalf("reopened answer [%v, %v] differs from original [%v, %v]", est2.Lo, est2.Hi, before.Lo, before.Hi)
	}
	if cs := eng2.CacheStats(); cs.SketchEntries == 0 {
		t.Error("reopened engine has an empty sketch tier")
	}
}
