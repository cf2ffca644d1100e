package core

import (
	"context"
	"fmt"
	"time"
)

// lifoFrontier is the partition stage's region stack: the most
// recently produced region is expanded first, which keeps the frontier
// minimal. Only the scheduler goroutine touches it.
type lifoFrontier struct{ items []regionCtx }

func (f *lifoFrontier) push(rc regionCtx) { f.items = append(f.items, rc) }
func (f *lifoFrontier) pop() (regionCtx, bool) {
	if len(f.items) == 0 {
		return regionCtx{}, false
	}
	rc := f.items[len(f.items)-1]
	f.items = f.items[:len(f.items)-1]
	return rc, true
}

// checkBudget enforces context cancellation, MaxRegions and Timeout.
func (s *solver) checkBudget(ctx context.Context, start time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.budgetUsed() > s.opt.MaxRegions {
		return fmt.Errorf("core: exceeded MaxRegions=%d (k=%d)", s.opt.MaxRegions, s.prob.K)
	}
	if s.opt.Timeout > 0 && time.Since(start) > s.opt.Timeout {
		return fmt.Errorf("core: exceeded timeout %v (k=%d)", s.opt.Timeout, s.prob.K)
	}
	return nil
}

// drive runs the partition stage: it processes the region tree from
// root until the frontier is exhausted, honoring context cancellation
// and the recursion and wall-clock budgets, sequentially or with a
// channel-based worker pool when Options.Workers > 1 (the parallelism
// direction of the paper's future-work section; results are identical,
// traversal order and the Seed-dependent split choices may differ).
func (s *solver) drive(ctx context.Context, root regionCtx, start time.Time) error {
	f := &lifoFrontier{}
	f.push(root)
	if s.opt.Workers <= 1 {
		for {
			rc, ok := f.pop()
			if !ok {
				return nil
			}
			if err := s.checkBudget(ctx, start); err != nil {
				return err
			}
			for _, c := range s.process(rc) {
				f.push(c)
			}
		}
	}
	return s.driveParallel(ctx, f, start)
}

// processOutcome is a worker's report back to the scheduler.
type processOutcome struct {
	children []regionCtx
	err      error
}

// driveParallel is the worker-pool driver. A single scheduler goroutine
// (this one) owns the frontier and dispatches regions to workers over a
// channel; workers report children and errors back on a second channel.
// The scheduler stops dispatching on the first error or context
// cancellation, drains in-flight work, and only then returns, so no
// worker is left writing to a closed or abandoned channel.
func (s *solver) driveParallel(ctx context.Context, f *lifoFrontier, start time.Time) error {
	tasks := make(chan regionCtx)
	outcomes := make(chan processOutcome)
	done := make(chan struct{})
	defer close(done)

	for w := 0; w < s.opt.Workers; w++ {
		go func() {
			for rc := range tasks {
				children := s.process(rc)
				err := s.checkBudget(ctx, start)
				select {
				case outcomes <- processOutcome{children: children, err: err}:
				case <-done:
					return
				}
			}
		}()
	}
	defer close(tasks)

	var (
		firstErr    error
		inflight    int
		pending     regionCtx
		havePending bool
		ctxDone     = ctx.Done()
	)
	for {
		if !havePending && firstErr == nil {
			pending, havePending = f.pop()
		}
		if inflight == 0 && (firstErr != nil || !havePending) {
			return firstErr
		}
		sendCh := chan regionCtx(nil)
		if havePending && firstErr == nil {
			sendCh = tasks
		}
		select {
		case sendCh <- pending:
			pending = regionCtx{}
			havePending = false
			inflight++
		case out := <-outcomes:
			inflight--
			if out.err != nil && firstErr == nil {
				firstErr = out.err
			}
			for _, c := range out.children {
				f.push(c)
			}
		case <-ctxDone:
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			ctxDone = nil // drain in-flight work without re-firing
		}
	}
}
