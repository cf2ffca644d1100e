package main

// GET /v1/datasets/{name}/watch — the standing-query route. The
// response is a server-sent-event stream of generation-stamped region
// deltas: one "region" event per re-evaluation whose region fingerprint
// actually moved, nothing at all for mutation batches the patch plane
// proved region-neutral. The subscription rides the engine's
// notification hub, so an idle stream costs the daemon nothing per
// mutation beyond the suppression check.
//
// Stream grammar (SSE):
//
//	event: region   data: {"generation":..,"fingerprint":"..","initial":bool,"dropped":n,"result":{..}}
//	event: error    data: {"generation":..,"error":".."}     (query unsolvable at this generation; stream continues)
//	event: bye      data: {"reason":".."}                    (terminal: dataset dropped, engine closed, or daemon draining)
//	: keepalive                                              (comment, every keepAliveEvery while quiet)
//
// The first region event always carries initial=true and the region at
// subscribe time. dropped counts events displaced by a slow consumer
// since the last delivered one (latest-wins buffering).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"toprr/pkg/toprr"
)

// keepAliveEvery paces SSE comment frames on quiet streams so
// intermediaries don't reap the connection.
const keepAliveEvery = 15 * time.Second

// maxWatchDebounce bounds the client-requested coalescing window.
const maxWatchDebounce = time.Minute

// watchEventJSON is one region event on the wire. Fingerprint is hex —
// a uint64 does not survive JSON number precision.
type watchEventJSON struct {
	Generation  uint64      `json:"generation"`
	Fingerprint string      `json:"fingerprint"`
	Initial     bool        `json:"initial,omitempty"`
	Dropped     int         `json:"dropped,omitempty"`
	Result      *resultJSON `json:"result,omitempty"`
}

// parseFloatList parses a comma-separated float list query parameter.
func parseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("missing")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// watchQuery builds the standing query and debounce window from the
// request's URL parameters: k, lo, hi (comma-separated), optional
// debounce (Go duration; "0s" means no coalescing at all) and alg. The
// returned debounce is in the engine's convention: 0 engine default,
// negative none.
func watchQuery(snap toprr.Snapshot, r *http.Request) (toprr.Query, time.Duration, error) {
	p := r.URL.Query()
	k, err := strconv.Atoi(p.Get("k"))
	if err != nil {
		return toprr.Query{}, 0, fmt.Errorf("k: %w", err)
	}
	lo, err := parseFloatList(p.Get("lo"))
	if err != nil {
		return toprr.Query{}, 0, fmt.Errorf("lo: %w", err)
	}
	hi, err := parseFloatList(p.Get("hi"))
	if err != nil {
		return toprr.Query{}, 0, fmt.Errorf("hi: %w", err)
	}
	q, err := buildQuery(snap, queryJSON{K: k, Lo: lo, Hi: hi, Alg: p.Get("alg")})
	if err != nil {
		return toprr.Query{}, 0, err
	}
	var debounce time.Duration // engine convention: 0 = engine default
	if v := p.Get("debounce"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return toprr.Query{}, 0, fmt.Errorf("debounce: %w", err)
		}
		if d < 0 || d > maxWatchDebounce {
			return toprr.Query{}, 0, fmt.Errorf("debounce %v out of range [0, %v]", d, maxWatchDebounce)
		}
		debounce = d
		if d == 0 {
			debounce = -1
		}
	}
	return q, debounce, nil
}

// sseWriter frames server-sent events over a flushable response.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (s sseWriter) event(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

func (s sseWriter) comment(text string) error {
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", text); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// handleWatch answers GET .../watch with an SSE stream over a standing
// subscription. The tenant stays acquired (pinned against idle
// eviction) for the stream's lifetime; the stream ends with a "bye"
// event when the dataset is dropped, the engine closes, the daemon
// drains, or the client disconnects.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request, eng *toprr.Engine) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	q, debounce, err := watchQuery(eng.Snapshot(), r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sub, err := eng.Watch(q.K, q.WR, toprr.WatchOptions{
		Debounce: debounce,
		Options:  q.Options,
		Ctx:      r.Context(),
	})
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, toprr.ErrTooManySubscriptions):
			code = http.StatusTooManyRequests
		case errors.Is(err, toprr.ErrEngineClosed), errors.Is(err, toprr.ErrClosed):
			code = http.StatusServiceUnavailable
		default:
			code = solveStatus(err)
		}
		writeErr(w, code, err)
		return
	}
	defer sub.Close()
	// A stream outlives the server's WriteTimeout by design. Clearing the
	// deadline fails only on writers that have none to clear.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	out := sseWriter{w: w, f: flusher}

	keepalive := time.NewTicker(keepAliveEvery)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-sub.Updates():
			if !open {
				// The engine closed under the stream: dataset dropped or
				// daemon shutting down.
				_ = out.event("bye", struct {
					Reason string `json:"reason"`
				}{"dataset closed"})
				return
			}
			if ev.Err != nil {
				if out.event("error", struct {
					Generation uint64 `json:"generation"`
					Error      string `json:"error"`
				}{uint64(ev.Generation), ev.Err.Error()}) != nil {
					return
				}
				continue
			}
			rj := resultToJSON(ev.Result)
			if out.event("region", watchEventJSON{
				Generation:  uint64(ev.Generation),
				Fingerprint: strconv.FormatUint(ev.Fingerprint, 16),
				Initial:     ev.Initial,
				Dropped:     ev.Dropped,
				Result:      &rj,
			}) != nil {
				return
			}
		case <-keepalive.C:
			if out.comment("keepalive") != nil {
				return
			}
		case <-s.draining:
			_ = out.event("bye", struct {
				Reason string `json:"reason"`
			}{"server draining"})
			return
		case <-r.Context().Done():
			return
		}
	}
}
