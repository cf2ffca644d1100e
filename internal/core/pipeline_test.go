package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"toprr/internal/topk"
	"toprr/internal/vec"
)

// TestSolveContextPreCancelled: a cancelled context aborts before any
// work is done.
func TestSolveContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	prob := randomProblem(rng, 120, 3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, prob, Options{Alg: TASStar}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolveContextCancelDuringPartition cancels between the prefilter
// and partition stages, for both the sequential and the channel-based
// parallel driver: a sketch gate cancels the solve's context and
// declines, so the full r-skyband runs and the partition stage
// deterministically starts with a cancelled context, exercising the
// driver's abort path.
func TestSolveContextCancelDuringPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	prob := randomProblem(rng, 150, 3, 5)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancellingGate := func(*topk.Scorer, []vec.Vector, int) ([]int, int, bool) {
			cancel()
			return nil, 0, false
		}
		opt := Options{Alg: TASStar, Workers: workers, SketchGate: cancellingGate}
		_, err := SolveContext(ctx, prob, opt)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestSolveContextDeadline: an already-expired deadline surfaces as
// DeadlineExceeded through the pipeline.
func TestSolveContextDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	prob := randomProblem(rng, 120, 3, 4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := SolveContext(ctx, prob, Options{Alg: TAS, Workers: 3}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSolveContextMidFlightCancel starts a solve, waits for the
// partition stage to make real progress, cancels, and requires the
// solve to return promptly with the cancellation error.
func TestSolveContextMidFlightCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	prob := randomProblem(rng, 500, 4, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	before := RegionsProcessed()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := SolveContext(ctx, prob, Options{Alg: TAS, Workers: 4})
		done <- outcome{res, err}
	}()
	// Wait until the partition stage has processed some regions, then
	// cancel. If the solve beats the cancel it must still be correct,
	// so either outcome is legal — but a cancelled solve must report
	// context.Canceled and must not hang.
	for RegionsProcessed()-before < 8 {
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("solve failed before cancellation: %v", o.err)
			}
			return // finished legitimately before we could cancel
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	cancel()
	select {
	case o := <-done:
		if o.err != nil && !errors.Is(o.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("solve did not return after cancellation")
	}
}

// TestSharedCachesMatch: solving with an engine-style shared top-k
// registry is an optimization only — the results must be identical to
// isolated solves, and repeated solves must actually hit the shared
// state.
func TestSharedCachesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	prob := randomProblem(rng, 150, 3, 4)
	reg := topk.NewRegistry(prob.Scorer)
	shared := Options{Alg: TASStar, TopKCaches: reg}

	base, err := Solve(prob, Options{Alg: TASStar})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Solve(prob, shared)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() == 0 {
		t.Error("top-k registry not populated")
	}
	second, err := Solve(prob, shared)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := reg.Stats()
	if hits == 0 {
		t.Error("repeat solve produced no top-k cache hits")
	}
	for probe := 0; probe < 400; probe++ {
		o := vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
		if base.IsTopRanking(o) != first.IsTopRanking(o) || base.IsTopRanking(o) != second.IsTopRanking(o) {
			t.Fatalf("shared-cache solve differs at %v", o)
		}
	}
}
