package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/pkg/ones"
)

// fakeClock is an injectable, manually advanced time source shared by
// the rate-limit and breaker tests (assigned to Server.now before the
// httptest server starts, so no handler races the assignment).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newHardenedServer builds a metrics-instrumented server under the given
// hardening Config. mutate (optional) runs before the HTTP listener
// starts — the hook tests use to inject a fake clock.
func newHardenedServer(t *testing.T, dir string, cfg Config, mutate func(*Server)) (*Server, *ones.Metrics, *httptest.Server) {
	t.Helper()
	cache, err := ones.NewCache(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	m := ones.NewMetrics()
	srv := New(cache, nil, WithMetrics(m), WithConfig(cfg))
	if mutate != nil {
		mutate(srv)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, m, ts
}

// streamRunTolerant is streamRun for runs that may already have been
// evicted: a 404 reports found == false instead of failing the test.
func streamRunTolerant(t *testing.T, base, id string) (found bool, final streamEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return false, streamEvent{}
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "end" {
			return true, ev
		}
	}
	t.Fatalf("stream for %s ended without a terminal event: %v", id, sc.Err())
	return false, streamEvent{}
}

// TestHubSharedFanout is the fan-out acceptance check: 50 clients
// streaming ONE run cost exactly one simulation and one log append per
// event — onesd_hub_events_total counts events, not events × clients.
func TestHubSharedFanout(t *testing.T) {
	srv, m, ts := newHardenedServer(t, "", Config{}, nil)
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	st := createRun(t, ts.URL, quickSpec())

	const clients = 50
	var wg sync.WaitGroup
	kinds := make([][]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ks, final := streamRun(t, ts.URL, st.ID)
			if final.Status != StatusDone {
				t.Errorf("client %d: stream ended %q: %s", i, final.Status, final.Error)
			}
			kinds[i] = ks
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if fmt.Sprint(kinds[i]) != fmt.Sprint(kinds[0]) {
			t.Errorf("client %d saw %v, client 0 saw %v", i, kinds[i], kinds[0])
		}
	}
	if cs := srv.cache.Stats(); cs.Computes != 1 {
		t.Errorf("50 clients of one run cost %d computes, want 1", cs.Computes)
	}
	// kinds includes the synthetic "end" line; everything before it was a
	// logged event, recorded exactly once however many clients follow.
	events := uint64(len(kinds[0]) - 1)
	if got := m.Registry().CounterValue("onesd_hub_events_total"); got != events {
		t.Errorf("onesd_hub_events_total = %d, want %d (one per event, not per client)", got, events)
	}
	// A handler leaves the gauge when it returns, just after its client
	// has read the end line; Close waits for every handler to return.
	ts.Close()
	if got := m.Registry().GaugeValue("onesd_stream_clients"); got != 0 {
		t.Errorf("onesd_stream_clients = %v after all streams closed, want 0", got)
	}
}

// TestDaemonStressHardened hammers a capped daemon with 50 concurrent
// clients — most create+stream identical quick runs (singleflight: one
// simulation), some create-and-cancel independent slow runs — under the
// MaxRuns bound, then checks the table stayed bounded, evicted runs 404
// on every endpoint, and shutdown leaks no goroutines. Run with -race.
func TestDaemonStressHardened(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, m, ts := newHardenedServer(t, "", Config{MaxRuns: 10}, nil)

	const clients = 50
	var (
		wg  sync.WaitGroup
		idm sync.Mutex
		ids []string
	)
	record := func(id string) {
		idm.Lock()
		ids = append(ids, id)
		idm.Unlock()
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%10 == 0 {
				// Canceller: an independent slow run, killed mid-cell.
				spec := slowSpec()
				spec.Seed = int64(100 + i)
				st := createRun(t, ts.URL, spec)
				record(st.ID)
				time.Sleep(100 * time.Millisecond)
				doJSON(t, "DELETE", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusAccepted)
				return
			}
			st := createRun(t, ts.URL, quickSpec())
			record(st.ID)
			// The capped table may evict this run the moment it finishes
			// (cap pressure from 49 siblings): a 404 here is the eviction
			// contract working, not a failure.
			if found, final := streamRunTolerant(t, ts.URL, st.ID); found && final.Status != StatusDone {
				t.Errorf("client %d: stream ended %q: %s", i, final.Status, final.Error)
			}
		}(i)
	}
	wg.Wait()

	// Drain the cancelled runs to terminal state so the table settles,
	// tolerating eviction of already-finished ones.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if srv.countRuns(StatusRunning) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled runs never drained")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if n := len(srv.list()); n > 10 {
		t.Errorf("run table holds %d runs after the storm, want ≤ MaxRuns=10", n)
	}
	if got := m.Registry().CounterValue("cache_evictions_total", "runtable", "cap"); got == 0 {
		t.Error("no runtable cap evictions counted after 50 runs against MaxRuns=10")
	}
	// All 45 identical quick runs shared one simulation.
	if cs := srv.cache.Stats(); cs.Computes < 1 || cs.Computes > 1+clients/10 {
		t.Errorf("cache computes = %d, want 1 shared quick compute (+ at most %d cancelled slow stragglers)", cs.Computes, clients/10)
	}
	// Every endpoint 404s an evicted run.
	live := map[string]bool{}
	for _, r := range srv.list() {
		live[r.ID] = true
	}
	evicted := ""
	idm.Lock()
	for _, id := range ids {
		if !live[id] {
			evicted = id
			break
		}
	}
	idm.Unlock()
	if evicted == "" {
		t.Fatal("no evicted run found among 50 creations against MaxRuns=10")
	}
	doJSON(t, "GET", ts.URL+"/v1/runs/"+evicted, nil, http.StatusNotFound)
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+evicted, nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/v1/runs/"+evicted+"/trace", nil, http.StatusNotFound)
	doJSON(t, "GET", ts.URL+"/v1/runs/"+evicted+"/stream", nil, http.StatusNotFound)

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after shutdown: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunTableEvictionPreservesInFlight pins the cap-eviction contract:
// only FINISHED runs are evicted — a run still executing survives any
// cap pressure — and an evicted run 404s everywhere while attached
// streams are unaffected.
func TestRunTableEvictionPreservesInFlight(t *testing.T) {
	srv, m, ts := newHardenedServer(t, "", Config{MaxRuns: 2}, nil)
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	slow := createRun(t, ts.URL, slowSpec()) // stays running throughout
	var quicks []RunStatus
	for i := 0; i < 3; i++ {
		st := createRun(t, ts.URL, quickSpec())
		waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
		quicks = append(quicks, st)
	}

	// The slow run is over-cap the whole time but never evicted.
	if got := getRun(t, ts.URL, slow.ID); got.Status != StatusRunning {
		t.Fatalf("in-flight run = %q, want still running despite cap pressure", got.Status)
	}
	// The two oldest finished quick runs were evicted to make room.
	for _, st := range quicks[:2] {
		doJSON(t, "GET", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusNotFound)
		doJSON(t, "GET", ts.URL+"/v1/runs/"+st.ID+"/trace", nil, http.StatusNotFound)
		doJSON(t, "DELETE", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusNotFound)
	}
	if got := getRun(t, ts.URL, quicks[2].ID); got.Status != StatusDone {
		t.Errorf("newest finished run = %q, want retained", got.Status)
	}
	if got := m.Registry().CounterValue("cache_evictions_total", "runtable", "cap"); got != 2 {
		t.Errorf("runtable cap evictions = %d, want 2", got)
	}

	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+slow.ID, nil, http.StatusAccepted)
	waitStatus(t, ts.URL, slow.ID, StatusCancelled, 10*time.Second)
}

// TestCancelFinishedRunKeepsResult pins the DELETE-on-finished contract
// the lock audit established: cancelling a run that already finished is
// an idempotent 202 that changes nothing — the status stays done, the
// result stays served, and a concurrent late stream still replays the
// full history with a done terminal line.
func TestCancelFinishedRunKeepsResult(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	st := createRun(t, ts.URL, quickSpec())
	waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				var got RunStatus
				if err := json.Unmarshal(doJSON(t, "DELETE", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusAccepted), &got); err != nil {
					t.Error(err)
					return
				}
				if got.Status != StatusDone {
					t.Errorf("DELETE on a finished run reports %q, want status unchanged (done)", got.Status)
				}
			} else {
				_, final := streamRun(t, ts.URL, st.ID)
				if final.Status != StatusDone {
					t.Errorf("stream racing DELETE ended %q, want done", final.Status)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := getRun(t, ts.URL, st.ID); got.Status != StatusDone || got.Result == nil {
		t.Errorf("after DELETE races: status %q result %v, want done with result", got.Status, got.Result != nil)
	}
}

// TestStreamClientNeverCut: a stream client that reads the first event
// live and then nothing while its run logs 999 more is never cut. The
// run never waits on it; when the client reads again it gets every event
// in order, and the end line once the run finishes. The test plays the
// engine, on a run with no session behind it.
func TestStreamClientNeverCut(t *testing.T) {
	srv, m, ts := newHardenedServer(t, "", Config{}, nil)
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	r := newRun("run-stalled", RunSpec{}, func() {}, time.Now(), srv.runEvents)
	srv.mu.Lock()
	srv.runs[r.ID] = r
	srv.order = append(srv.order, r.ID)
	srv.mu.Unlock()

	// The headers arrive with the handler's first flush, after it has
	// read the still-empty log: from here on it follows the run live.
	resp, err := http.Get(ts.URL + "/v1/runs/" + r.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	const n = 1000
	var lines []streamEvent
	sc := bufio.NewScanner(resp.Body)
	read := func() bool {
		if !sc.Scan() {
			return false
		}
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
		return true
	}
	r.Observe(ones.Progress{Kind: ones.KindCellDone, Done: 1, Total: n})
	if !read() {
		t.Fatalf("the live run's first event never reached the client: %v", sc.Err())
	}
	for i := 2; i <= n; i++ {
		r.Observe(ones.Progress{Kind: ones.KindCellDone, Done: i, Total: n})
	}
	for len(lines) < n && read() {
	}
	if len(lines) != n {
		t.Fatalf("stalled client read %d events, want %d: %v", len(lines), n, sc.Err())
	}
	for i, ev := range lines {
		if ev.Kind != string(ones.KindCellDone) || ev.Done != i+1 {
			t.Fatalf("line %d = %+v, want cell-done %d", i, ev, i+1)
		}
	}
	// The client has caught up, so only finish can wake it for the end line.
	r.finish(&ones.Result{}, nil, nil, false)
	r.Observe(ones.Progress{Kind: ones.KindCellDone, Done: n + 1, Total: n})
	if !read() {
		t.Fatalf("no end line: %v", sc.Err())
	}
	if end := lines[n]; end.Kind != "end" || end.Status != StatusDone || end.Done != n || end.Total != n {
		t.Errorf("end line = %+v, want end/done %d/%d", end, n, n)
	}
	if read() {
		t.Errorf("line after the end line: %+v", lines[n+1])
	}

	events, _, finished := r.since(0)
	if !finished || len(events) != n {
		t.Fatalf("since(0) = %d events, finished %v; want %d, true", len(events), finished, n)
	}
	for i, p := range events {
		if p.Done != i+1 {
			t.Fatalf("event %d has Done %d, want %d", i, p.Done, i+1)
		}
	}
	if got := m.Registry().CounterValue("onesd_hub_events_total"); got != n {
		t.Errorf("onesd_hub_events_total = %d, want %d", got, n)
	}
	if st, _ := r.snapshot(); st.CellsDone != n || st.CellsTotal != n {
		t.Errorf("snapshot progress = %d/%d, want %d/%d", st.CellsDone, st.CellsTotal, n, n)
	}
}

// TestNeverReadingClientDoesNotWedgeRun attaches a stream client that
// reads nothing until the run is done and checks the run (and the rest
// of the daemon) completes regardless: the run appends to its log
// without waiting on any client. The client then still gets every event
// and the end line.
func TestNeverReadingClientDoesNotWedgeRun(t *testing.T) {
	srv, _, ts := newHardenedServer(t, "", Config{}, nil)
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	st := createRun(t, ts.URL, quickSpec())
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // deliberately not read until the run is done
	if got := waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second); got.Result == nil {
		t.Error("run wedged by a non-reading stream client")
	}
	kinds, final := readStream(t, resp.Body)
	want := []string{string(ones.KindRunStart), string(ones.KindCellStart), string(ones.KindCellDone), string(ones.KindRunDone), "end"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) || final.Status != StatusDone {
		t.Errorf("stalled stream = %v ending %q, want %v ending done", kinds, final.Status, want)
	}
}
