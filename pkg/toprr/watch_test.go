package toprr_test

// The notification-oracle suite (ISSUE 8): standing subscriptions ride
// a random insert/delete/update stream on four seeded markets, and
// after every batch each subscription is checked against a fresh
// cold-engine re-solve — every emitted event must match the oracle
// bit for bit (constraints and fingerprint), and every batch that
// emitted nothing must re-solve to a region identical to the last
// delivered one (no missed updates, no spurious wakeups). Runs under
// -race in CI with the rest of pkg/toprr.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// settle waits for the hub to drain, failing the test on timeout.
func settle(t *testing.T, eng *toprr.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.WatchSettle(ctx); err != nil {
		t.Fatalf("hub did not settle: %v", err)
	}
}

// drain pops every queued event without blocking.
func drain(sub *toprr.Subscription) []toprr.RegionEvent {
	var evs []toprr.RegionEvent
	for {
		select {
		case ev, ok := <-sub.Updates():
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// sameConstraints asserts two results carry bit-identical exact
// H-representations: same constraint count, same coefficients, same
// offsets, in the same order.
func sameConstraints(t *testing.T, tag string, got, want *toprr.Result) {
	t.Helper()
	if len(got.ORConstraints) != len(want.ORConstraints) {
		t.Fatalf("%s: %d constraints, want %d", tag, len(got.ORConstraints), len(want.ORConstraints))
	}
	for i := range got.ORConstraints {
		g, w := got.ORConstraints[i], want.ORConstraints[i]
		if g.B != w.B || len(g.A) != len(w.A) {
			t.Fatalf("%s: constraint %d = %v>=%v, want %v>=%v", tag, i, g.A, g.B, w.A, w.B)
		}
		for j := range g.A {
			if g.A[j] != w.A[j] {
				t.Fatalf("%s: constraint %d coeff %d = %v, want %v", tag, i, j, g.A[j], w.A[j])
			}
		}
	}
}

func TestWatchNotificationOracle(t *testing.T) {
	// The rows once also varied the shard count; they keep their names
	// and seeds so that no dataset the oracle covered is lost.
	for _, row := range []struct {
		name string
		seed int64
	}{{"S1", 91}, {"S2", 92}, {"S3", 93}, {"S8", 98}} {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(row.seed))
			ctx := context.Background()
			d := 3
			n := 70
			pts := randomMarket(rng, n, d)
			mirror := append([]vec.Vector(nil), pts...)
			eng := toprr.NewEngine(pts)
			defer eng.Close()

			// Three standing queries at distinct k over distinct regions,
			// deterministic solver options so the oracle comparison is exact.
			type watcher struct {
				sub    *toprr.Subscription
				q      toprr.Query
				lastFP uint64
				last   *toprr.Result
			}
			var ws []*watcher
			for i := 0; i < 3; i++ {
				q := wideQuery(rng, d, 1+i)
				q.Options = oracleOptions() // the oracle re-solves q with the watcher's options
				sub, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{
					Debounce: -1, // evaluate on the next hub cycle: the oracle checks per batch
					Options:  q.Options,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				evs := drain(sub)
				if len(evs) != 1 || !evs[0].Initial {
					t.Fatalf("watcher %d: initial delivery = %+v, want one Initial event", i, evs)
				}
				if evs[0].Fingerprint != toprr.RegionFingerprint(evs[0].Result) {
					t.Fatalf("watcher %d: initial fingerprint mismatch", i)
				}
				ws = append(ws, &watcher{sub: sub, q: q, lastFP: evs[0].Fingerprint, last: evs[0].Result})
			}

			for batch := 0; batch < 10; batch++ {
				var ops []toprr.Op
				switch batch % 4 {
				case 0: // pure inserts, mixing dominated and live options
					for i := 0; i < 1+rng.Intn(3); i++ {
						if rng.Intn(2) == 0 {
							ops = append(ops, toprr.Insert(vec.New(d))) // origin: dominated
							mirror = append(mirror, vec.New(d))
						} else {
							p := randomPoint(rng, d)
							ops = append(ops, toprr.Insert(p))
							mirror = append(mirror, p)
						}
					}
				case 1: // a corner-dominant insert that cracks regions
					p := vec.Of(0.95+0.04*rng.Float64(), 0.95+0.04*rng.Float64(), 0.95+0.04*rng.Float64())
					ops = []toprr.Op{toprr.Insert(p)}
					mirror = append(mirror, p)
				case 2: // swap-delete
					i := rng.Intn(len(mirror))
					ops = []toprr.Op{toprr.Delete(i)}
					last := len(mirror) - 1
					mirror[i] = mirror[last]
					mirror = mirror[:last]
				default: // update
					i := rng.Intn(len(mirror))
					p := randomPoint(rng, d)
					ops = []toprr.Op{toprr.Update(i, p)}
					mirror[i] = p
				}
				if _, err := eng.Apply(ctx, ops); err != nil {
					t.Fatal(err)
				}
				settle(t, eng)

				oracle := toprr.NewEngine(append([]vec.Vector(nil), mirror...))
				for wi, w := range ws {
					tag := fmt.Sprintf("%s batch %d watcher %d", row.name, batch, wi)
					want, err := oracle.SolveAt(ctx, oracle.Snapshot(), w.q)
					if err != nil {
						t.Fatalf("%s: oracle: %v", tag, err)
					}
					wantFP := toprr.RegionFingerprint(want)
					evs := drain(w.sub)
					if len(evs) > 1 {
						t.Fatalf("%s: %d events for one settled batch, want <= 1", tag, len(evs))
					}
					if len(evs) == 1 {
						ev := evs[0]
						if ev.Err != nil {
							t.Fatalf("%s: unexpected error event: %v", tag, ev.Err)
						}
						if ev.Generation != eng.Generation() {
							t.Fatalf("%s: event generation %d, want %d", tag, ev.Generation, eng.Generation())
						}
						if ev.Fingerprint == w.lastFP {
							t.Fatalf("%s: spurious wakeup: event with unmoved fingerprint %#x", tag, ev.Fingerprint)
						}
						if ev.Fingerprint != wantFP {
							t.Fatalf("%s: event fingerprint %#x, oracle %#x", tag, ev.Fingerprint, wantFP)
						}
						sameConstraints(t, tag+" (event vs oracle)", ev.Result, want)
						w.lastFP = ev.Fingerprint
						w.last = ev.Result
					} else {
						// No event: suppressed or fingerprint-gated. Either way
						// the region must not have moved — a fresh solve equals
						// the last delivered region bit for bit.
						if wantFP != w.lastFP {
							t.Fatalf("%s: MISSED UPDATE: oracle fingerprint %#x, last delivered %#x", tag, wantFP, w.lastFP)
						}
						sameConstraints(t, tag+" (silent batch vs oracle)", w.last, want)
					}
					// Membership sampling as a second, independent oracle.
					sameRegion(t, tag, rng, d, w.last, want)
				}
				oracle.Close()
			}

			st := eng.WatchStats()
			if st.Suppressed == 0 {
				t.Error("stream with dominated inserts never armed suppression")
			}
			if st.Evaluations == 0 {
				t.Error("stream with reshapes never re-evaluated")
			}
			if st.Dropped != 0 {
				t.Errorf("drained consumer dropped %d events", st.Dropped)
			}
		})
	}
}

// TestWatchSuppressionEconomy pins the notification economy: a
// dominated-insert stream produces zero notifications and zero
// re-solves, and a cracking stream then reaches every subscription
// within one debounce window. Row S1 carries three subscriptions
// through 100 dominated and 5 cracking inserts on a 5000-option market;
// every row bounds the cracking stream's re-solves at 67 (3 when the
// bound was pinned).
func TestWatchSuppressionEconomy(t *testing.T) {
	for _, tc := range []struct {
		name                string
		n, d, k, subs       int
		dominated, cracking int
		debounce            time.Duration
		query               func(rng *rand.Rand, d, k int) toprr.Query
	}{
		{name: "default", n: 150, d: 3, k: 3, subs: 1, dominated: 25, cracking: 1,
			debounce: 20 * time.Millisecond, query: wideQuery},
		{name: "S1", n: 5000, d: 4, k: 10, subs: 3, dominated: 100, cracking: 5,
			debounce: -1, query: randomQuery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			ctx := context.Background()
			d := tc.d
			eng := toprr.NewEngine(randomMarket(rng, tc.n, d))
			defer eng.Close()

			subs := make([]*toprr.Subscription, tc.subs)
			for i := range subs {
				q := tc.query(rng, d, tc.k)
				sub, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{Debounce: tc.debounce})
				if err != nil {
					t.Fatal(err)
				}
				defer sub.Close()
				if evs := drain(sub); len(evs) != 1 || !evs[0].Initial {
					t.Fatalf("sub %d: initial delivery = %+v", i, evs)
				}
				subs[i] = sub
			}
			base := eng.WatchStats()

			// Dominated inserts: options at the origin can enter no top-k,
			// so every batch must be suppressed — zero notifications, zero
			// solves.
			for i := 0; i < tc.dominated; i++ {
				if _, err := eng.Apply(ctx, []toprr.Op{toprr.Insert(vec.New(d))}); err != nil {
					t.Fatal(err)
				}
			}
			settle(t, eng)
			st := eng.WatchStats()
			if got := st.Suppressed - base.Suppressed; got != int64(tc.dominated) {
				t.Errorf("Suppressed = %d, want %d", got, tc.dominated)
			}
			if st.Evaluations != base.Evaluations {
				t.Errorf("dominated stream triggered %d re-solves, want 0", st.Evaluations-base.Evaluations)
			}
			if st.Signals != base.Signals {
				t.Errorf("dominated stream left %d signals unsuppressed", st.Signals-base.Signals)
			}
			for i, sub := range subs {
				if evs := drain(sub); len(evs) != 0 {
					t.Errorf("sub %d: dominated stream delivered %d events, want 0", i, len(evs))
				}
			}

			// Corner-dominant inserts, each just below the last, crack the
			// memoized top-k everywhere: every subscription must hear
			// about it within one debounce window (plus solve time and
			// scheduling slack).
			base = st
			start := time.Now()
			for b := 0; b < tc.cracking; b++ {
				p := vec.New(d)
				for j := range p {
					p[j] = 0.999 - 0.002*float64(b) - 0.001*float64(j)
				}
				if _, err := eng.Apply(ctx, []toprr.Op{toprr.Insert(p)}); err != nil {
					t.Fatal(err)
				}
			}
			last := make([]toprr.RegionEvent, len(subs))
			for i, sub := range subs {
				select {
				case ev := <-sub.Updates():
					if ev.Err != nil {
						t.Fatalf("sub %d: cracking insert delivered error: %v", i, ev.Err)
					}
					if elapsed := time.Since(start); elapsed < tc.debounce/2 {
						t.Logf("note: event after %v (debounce %v)", elapsed, tc.debounce)
					}
					if ev.Result == nil {
						t.Fatalf("sub %d: cracking event = %+v", i, ev)
					}
					last[i] = ev
				case <-time.After(10 * time.Second):
					t.Fatalf("sub %d: cracking stream produced no event within 10s (debounce %v)", i, tc.debounce)
				}
			}
			settle(t, eng)
			for i, sub := range subs {
				for _, ev := range drain(sub) {
					if ev.Err != nil || ev.Result == nil {
						t.Fatalf("sub %d: cracking event = %+v", i, ev)
					}
					last[i] = ev
				}
				if last[i].Generation != eng.Generation() {
					t.Fatalf("sub %d: last event at generation %d, engine at %d", i, last[i].Generation, eng.Generation())
				}
			}
			st = eng.WatchStats()
			t.Logf("cracking stream: %d re-solves, %d events", st.Evaluations-base.Evaluations, st.Delivered-base.Delivered)
			if evals := st.Evaluations - base.Evaluations; evals > 67 {
				t.Errorf("cracking stream ran %d re-solves, limit 67", evals)
			}
			if st.Delivered == base.Delivered {
				t.Error("cracking stream delivered no events")
			}
		})
	}
}

// TestWatchErrorAndRecovery: a subscription whose query becomes
// unsolvable (k exceeding the dataset after deletes) delivers one error
// event, stays registered, and resumes with a region event when the
// dataset recovers.
func TestWatchErrorAndRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	ctx := context.Background()
	d := 3
	n := 12
	eng := toprr.NewEngine(randomMarket(rng, n, d))
	defer eng.Close()

	q := wideQuery(rng, d, n) // k = n: one delete breaks it
	sub, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{Debounce: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	drain(sub)

	if _, err := eng.Apply(ctx, []toprr.Op{toprr.Delete(0)}); err != nil {
		t.Fatal(err)
	}
	settle(t, eng)
	evs := drain(sub)
	if len(evs) != 1 || evs[0].Err == nil {
		t.Fatalf("broken query delivered %+v, want one error event", evs)
	}

	// Further mutations during the failure streak re-evaluate but do not
	// repeat the error.
	if _, err := eng.Apply(ctx, []toprr.Op{toprr.Delete(0)}); err != nil {
		t.Fatal(err)
	}
	settle(t, eng)
	if evs := drain(sub); len(evs) != 0 {
		t.Fatalf("failure streak re-delivered: %+v", evs)
	}

	// Two inserts make k feasible again: the recovery event is
	// unconditional even if the region matches the pre-failure one.
	if _, err := eng.Apply(ctx, []toprr.Op{
		toprr.Insert(randomPoint(rng, d)),
		toprr.Insert(randomPoint(rng, d)),
	}); err != nil {
		t.Fatal(err)
	}
	settle(t, eng)
	evs = drain(sub)
	if len(evs) != 1 || evs[0].Err != nil || evs[0].Result == nil {
		t.Fatalf("recovery delivered %+v, want one region event", evs)
	}
}

// TestWatchCapAndClose: the subscription cap rejects with
// ErrTooManySubscriptions, closing a subscription frees a slot, and
// Engine.Close closes every Updates channel.
func TestWatchCapAndClose(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := 3
	eng := toprr.NewEngine(randomMarket(rng, 40, d), toprr.WithWatchCap(2))
	q := wideQuery(rng, d, 2)

	s1, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{}); !errors.Is(err, toprr.ErrTooManySubscriptions) {
		t.Fatalf("over-cap Watch returned %v, want ErrTooManySubscriptions", err)
	}
	if got := eng.WatchStats().Active; got != 2 {
		t.Fatalf("Active = %d, want 2", got)
	}

	s1.Close()
	s1.Close() // idempotent
	if _, ok := <-s1.Updates(); ok {
		// the initial event is still queued; the channel must then close
		if _, ok := <-s1.Updates(); ok {
			t.Fatal("closed subscription's channel still open")
		}
	}
	s3, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{})
	if err != nil {
		t.Fatalf("Watch after Close: %v", err)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*toprr.Subscription{s2, s3} {
		deadline := time.After(5 * time.Second)
		for open := true; open; {
			select {
			case _, ok := <-s.Updates():
				open = ok
			case <-deadline:
				t.Fatal("Engine.Close left an Updates channel open")
			}
		}
	}
	if _, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{}); !errors.Is(err, toprr.ErrEngineClosed) {
		t.Fatalf("Watch after engine close returned %v, want ErrEngineClosed", err)
	}
}

// TestWatchConcurrentChurn races subscribers, closers and writers: no
// deadlock, no panic, and every event stream stays per-subscription
// monotone in generation. Run with -race in CI.
func TestWatchConcurrentChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ctx := context.Background()
	d := 3
	eng := toprr.NewEngine(randomMarket(rng, 60, d))
	defer eng.Close()

	var wg sync.WaitGroup

	// Writers: a mix of dominated inserts, live inserts and deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(102))
		for i := 0; i < 60; i++ {
			var op toprr.Op
			switch i % 3 {
			case 0:
				op = toprr.Insert(vec.New(d))
			case 1:
				op = toprr.Insert(randomPoint(wrng, d))
			default:
				op = toprr.Delete(wrng.Intn(40))
			}
			if _, err := eng.Apply(ctx, []toprr.Op{op}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Watchers: subscribe, consume a few events, close.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(103 + g)))
			for i := 0; i < 5; i++ {
				q := wideQuery(grng, d, 1+grng.Intn(3))
				sub, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{Debounce: time.Millisecond})
				if err != nil {
					t.Errorf("watcher %d: %v", g, err)
					return
				}
				var lastGen toprr.Generation
				deadline := time.After(200 * time.Millisecond)
			consume:
				for {
					select {
					case ev, ok := <-sub.Updates():
						if !ok {
							break consume
						}
						if ev.Err == nil && ev.Generation < lastGen {
							t.Errorf("watcher %d: generation regressed %d -> %d", g, lastGen, ev.Generation)
						}
						if ev.Generation > lastGen {
							lastGen = ev.Generation
						}
					case <-deadline:
						break consume
					}
				}
				sub.Close()
			}
		}(g)
	}

	wg.Wait()
	settle(t, eng)
	if st := eng.WatchStats(); st.Active != 0 {
		t.Errorf("churn left %d active subscriptions", st.Active)
	}
}
