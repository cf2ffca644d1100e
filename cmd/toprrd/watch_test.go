package main

// Watch-endpoint suite: SSE framing, live delivery over mutations,
// suppression of dominated inserts on the wire, mid-stream dataset
// drop, the per-tenant subscription cap, restart-with-replay
// resubscribe on a durable registry, and the 404/405 JSON error
// contract shared with every other route.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"toprr/internal/vec"
	"toprr/pkg/toprr"
)

// watchTestServer wraps an httptest server around a registry with the
// watch-aware handler and cleans it up with the test.
func watchTestServer(t *testing.T, reg *toprr.Registry) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(reg, time.Minute, 32<<20))
	t.Cleanup(ts.Close)
	return ts
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// sseStream incrementally parses an SSE response body.
type sseStream struct {
	body io.Closer
	sc   *bufio.Scanner
}

func openStream(t *testing.T, url string) *sseStream {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch stream: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return &sseStream{body: resp.Body, sc: bufio.NewScanner(resp.Body)}
}

func (s *sseStream) close() { s.body.Close() }

// next reads one event, skipping keepalive comments. It blocks on the
// network; callers bound it with the response deadline or test timeout.
func (s *sseStream) next(t *testing.T) (sseEvent, bool) {
	t.Helper()
	var ev sseEvent
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				return ev, true
			}
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		}
	}
	return sseEvent{}, false
}

// watchURL builds the watch route for the default test dataset: k=2
// over a wide preference box in d=3 (2-dimensional preference space).
func watchURL(base string, extra string) string {
	return base + "/v1/datasets/default/watch?k=2&lo=0.05,0.05&hi=0.9,0.9" + extra
}

// regionJSON is the wire form this suite asserts on.
type regionJSON struct {
	Generation  uint64     `json:"generation"`
	Fingerprint string     `json:"fingerprint"`
	Initial     bool       `json:"initial"`
	Result      resultJSON `json:"result"`
}

func decodeRegion(t *testing.T, ev sseEvent) regionJSON {
	t.Helper()
	if ev.name != "region" {
		t.Fatalf("event %q (%s), want region", ev.name, ev.data)
	}
	var rj regionJSON
	if err := json.Unmarshal([]byte(ev.data), &rj); err != nil {
		t.Fatalf("region data %q: %v", ev.data, err)
	}
	return rj
}

// TestWatchEndpointStream: the stream opens with an initial region
// event, stays silent across dominated inserts, and delivers a
// generation-stamped region delta after a cracking insert.
func TestWatchEndpointStream(t *testing.T) {
	ts, eng := testServer(t, 120, time.Minute)
	st := openStream(t, watchURL(ts.URL, "&debounce=5ms"))
	defer st.close()

	ev, ok := st.next(t)
	if !ok {
		t.Fatal("stream ended before the initial event")
	}
	initial := decodeRegion(t, ev)
	if !initial.Initial {
		t.Fatalf("first event not initial: %+v", initial)
	}
	if initial.Fingerprint == "" || len(initial.Result.Constraints) == 0 {
		t.Fatalf("initial event incomplete: %+v", initial)
	}
	if initial.Generation != uint64(eng.Generation()) {
		t.Fatalf("initial generation %d, want %d", initial.Generation, eng.Generation())
	}

	// Dominated inserts: provably region-neutral, so nothing may arrive.
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := eng.Apply(ctx, []toprr.Op{toprr.Insert(vec.New(3))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.WatchSettle(ctx); err != nil {
		t.Fatal(err)
	}

	// A cracking insert: the next frame on the wire must be its region,
	// not anything from the dominated batch.
	if _, err := eng.Apply(ctx, []toprr.Op{toprr.Insert(vec.Of(0.99, 0.98, 0.97))}); err != nil {
		t.Fatal(err)
	}
	ev, ok = st.next(t)
	if !ok {
		t.Fatal("stream ended before the cracking event")
	}
	delta := decodeRegion(t, ev)
	if delta.Initial {
		t.Fatalf("second event claims initial: %+v", delta)
	}
	if delta.Generation != uint64(eng.Generation()) {
		t.Fatalf("delta generation %d, want %d (the cracked generation)", delta.Generation, eng.Generation())
	}
	if delta.Fingerprint == initial.Fingerprint {
		t.Fatal("cracking insert delivered an unmoved fingerprint")
	}
	if sup := eng.WatchStats().Suppressed; sup < 5 {
		t.Errorf("Suppressed = %d, want >= 5 (the dominated batch)", sup)
	}
}

// TestWatchEndpointDrop: dropping the dataset under a live stream ends
// it with a terminal bye event and a clean close, not a hang or a
// truncated frame.
func TestWatchEndpointDrop(t *testing.T) {
	reg, _ := testRegistry(t, 80)
	ts := watchTestServer(t, reg)
	st := openStream(t, watchURL(ts.URL, ""))
	defer st.close()

	if ev, ok := st.next(t); !ok || ev.name != "region" {
		t.Fatalf("initial event = %+v ok=%v", ev, ok)
	}

	done := make(chan error, 1)
	go func() { done <- reg.Drop("default") }()

	ev, ok := st.next(t)
	if !ok || ev.name != "bye" {
		t.Fatalf("after drop: event %+v ok=%v, want bye", ev, ok)
	}
	if _, ok := st.next(t); ok {
		t.Fatal("stream continued past bye")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drop blocked on the live stream")
	}
}

// TestWatchEndpointCap: the per-tenant subscription cap turns the
// (cap+1)-th stream into a JSON 429 while the first streams stay live.
func TestWatchEndpointCap(t *testing.T) {
	reg, err := toprr.NewRegistry(toprr.WithRegistryWatchCap(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Create("default", testPts(60)); err != nil {
		t.Fatal(err)
	}
	ts := watchTestServer(t, reg)

	var streams []*sseStream
	for i := 0; i < 2; i++ {
		st := openStream(t, watchURL(ts.URL, ""))
		defer st.close()
		if ev, ok := st.next(t); !ok || ev.name != "region" {
			t.Fatalf("stream %d: initial event = %+v", i, ev)
		}
		streams = append(streams, st)
	}

	resp, err := http.Get(watchURL(ts.URL, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap watch: status %d, want 429", resp.StatusCode)
	}
	var ej errorJSON
	decodeJSON(t, resp, &ej)
	if ej.Error == "" {
		t.Fatal("429 body carries no error field")
	}

	// Closing one stream frees its slot (the daemon closes the
	// subscription when the client goes away).
	streams[0].close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(watchURL(ts.URL, ""))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchEndpointRestartResubscribe: a durable daemon restarts, the
// dataset recovers by WAL replay, and a fresh subscription over the
// restarted daemon sees exactly the region the pre-restart mutations
// produced.
func TestWatchEndpointRestartResubscribe(t *testing.T) {
	root := t.TempDir()
	ts, reg := durableServer(t, root, testPts(60), toprr.PersistConfig{})

	st := openStream(t, watchURL(ts.URL, "&debounce=0s"))
	if ev, ok := st.next(t); !ok || ev.name != "region" {
		t.Fatalf("initial event = %+v", ev)
	}
	// Mutate through the engine: a cracking insert that must survive the
	// restart via WAL replay.
	eng, err := reg.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), []toprr.Op{toprr.Insert(vec.Of(0.97, 0.96, 0.95))}); err != nil {
		t.Fatal(err)
	}
	ev, ok := st.next(t)
	if !ok {
		t.Fatal("no event for the cracking insert")
	}
	preFP := decodeRegion(t, ev).Fingerprint
	preGen := uint64(eng.Generation())
	st.close()
	ts.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same root: recovery replays the WAL; the engine
	// closing must have ended the old hub cleanly (no leaked goroutine
	// holds the WAL).
	ts2, reg2 := durableServer(t, root, testPts(60), toprr.PersistConfig{})
	defer reg2.Close()
	defer ts2.Close()
	st2 := openStream(t, ts2.URL+"/v1/datasets/default/watch?k=2&lo=0.05,0.05&hi=0.9,0.9")
	defer st2.close()
	ev2, ok := st2.next(t)
	if !ok {
		t.Fatal("restarted stream ended before its initial event")
	}
	re := decodeRegion(t, ev2)
	if !re.Initial {
		t.Fatalf("restarted stream's first event not initial: %+v", re)
	}
	if re.Generation != preGen {
		t.Fatalf("restarted initial generation %d, want replayed %d", re.Generation, preGen)
	}
	if re.Fingerprint != preFP {
		t.Fatalf("restarted region fingerprint %s, want %s (same dataset, same query)", re.Fingerprint, preFP)
	}
}

// TestWatchEndpointErrors: the watch route honors the daemon-wide JSON
// error contract — 405 on non-GET, 404 for unknown datasets, 400 for
// malformed parameters — and never falls back to mux defaults.
func TestWatchEndpointErrors(t *testing.T) {
	ts, _ := testServer(t, 40, time.Minute)
	cases := []struct {
		name   string
		method string
		url    string
		want   int
	}{
		{"post is 405", http.MethodPost, watchURL(ts.URL, ""), http.StatusMethodNotAllowed},
		{"delete is 405", http.MethodDelete, watchURL(ts.URL, ""), http.StatusMethodNotAllowed},
		{"unknown dataset 404", http.MethodGet, ts.URL + "/v1/datasets/nope/watch?k=2&lo=0.1,0.1&hi=0.9,0.9", http.StatusNotFound},
		{"missing k 400", http.MethodGet, ts.URL + "/v1/datasets/default/watch?lo=0.1,0.1&hi=0.9,0.9", http.StatusBadRequest},
		{"bad lo 400", http.MethodGet, ts.URL + "/v1/datasets/default/watch?k=2&lo=zap&hi=0.9,0.9", http.StatusBadRequest},
		{"NaN lo 400", http.MethodGet, ts.URL + "/v1/datasets/default/watch?k=3&lo=NaN,0.2&hi=0.3,0.3", http.StatusBadRequest},
		{"Inf hi 400", http.MethodGet, ts.URL + "/v1/datasets/default/watch?k=3&lo=0.1,0.2&hi=Inf,0.3", http.StatusBadRequest},
		{"wrong dims 400", http.MethodGet, ts.URL + "/v1/datasets/default/watch?k=2&lo=0.1&hi=0.9", http.StatusBadRequest},
		{"k too large 400", http.MethodGet, ts.URL + "/v1/datasets/default/watch?k=4000&lo=0.1,0.1&hi=0.9,0.9", http.StatusBadRequest},
		{"bad debounce 400", http.MethodGet, watchURL(ts.URL, "&debounce=-3s"), http.StatusBadRequest},
		{"huge debounce 400", http.MethodGet, watchURL(ts.URL, "&debounce=2h"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				resp.Body.Close()
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			var ej errorJSON
			decodeJSON(t, resp, &ej)
			if ej.Error == "" {
				t.Error("error body missing the error field")
			}
		})
	}
}

// TestWatchEndpointServerDrain: shutting the HTTP server down ends live
// streams with a bye frame via the RegisterOnShutdown hook instead of
// hanging until the drain budget expires.
func TestWatchEndpointServerDrain(t *testing.T) {
	reg, _ := testRegistry(t, 60)
	api := newServer(reg, time.Minute, 32<<20)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	st := openStream(t, watchURL(ts.URL, ""))
	defer st.close()
	if ev, ok := st.next(t); !ok || ev.name != "region" {
		t.Fatalf("initial event = %+v", ev)
	}

	api.drainWatches()
	ev, ok := st.next(t)
	if !ok || ev.name != "bye" {
		t.Fatalf("after drain: event %+v ok=%v, want bye", ev, ok)
	}
	var bye struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(ev.data), &bye); err != nil || bye.Reason == "" {
		t.Fatalf("bye data %q: %v", ev.data, err)
	}
}

// TestWatchOutlivesWriteTimeout: the daemon's http.Server carries a
// write timeout derived from the request deadline, and a watch stream
// clears it — an event published after the timeout still arrives.
func TestWatchOutlivesWriteTimeout(t *testing.T) {
	reg, eng := testRegistry(t, 120)
	srv := newHTTPServer("", newServer(reg, time.Minute, 32<<20))
	if want := time.Minute + writeTimeoutMargin; srv.WriteTimeout != want {
		t.Fatalf("WriteTimeout = %v, want %v", srv.WriteTimeout, want)
	}
	if srv.IdleTimeout != idleTimeout || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("IdleTimeout/ReadHeaderTimeout = %v/%v", srv.IdleTimeout, srv.ReadHeaderTimeout)
	}
	if off := newHTTPServer("", newServer(reg, 0, 32<<20)); off.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout with no request deadline = %v, want 0", off.WriteTimeout)
	}

	const writeTimeout = 100 * time.Millisecond
	srv.WriteTimeout = writeTimeout
	ts := httptest.NewUnstartedServer(srv.Handler)
	ts.Config = srv
	ts.Start()
	t.Cleanup(ts.Close)

	st := openStream(t, watchURL(ts.URL, "&debounce=0s"))
	defer st.close()
	if ev, ok := st.next(t); !ok || !decodeRegion(t, ev).Initial {
		t.Fatalf("no initial region event (ok=%v)", ok)
	}
	time.Sleep(3 * writeTimeout)
	if _, err := eng.Apply(context.Background(), []toprr.Op{toprr.Insert(vec.Of(0.99, 0.98, 0.97))}); err != nil {
		t.Fatal(err)
	}
	ev, ok := st.next(t)
	if !ok {
		t.Fatal("stream ended at the write timeout")
	}
	if rj := decodeRegion(t, ev); rj.Generation != uint64(eng.Generation()) {
		t.Fatalf("event generation %d, want %d", rj.Generation, eng.Generation())
	}
}
