package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/ones"
)

// quickSpec is a fast deterministic run every concurrency test shares:
// identical specs must hit one cache entry.
func quickSpec() RunSpec {
	return RunSpec{Scheduler: "tiresias", Jobs: 8, Interarrival: 25, Seed: 9, Quick: true}
}

// slowSpec is a run long enough to be caught mid-cell and cancelled.
func slowSpec() RunSpec {
	return RunSpec{Scheduler: "ones", Jobs: 40, Interarrival: 10, Population: 24, Seed: 3}
}

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := ones.NewCache(dir, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cache, nil)
	ts := httptest.NewServer(srv.Handler())
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any, wantCode int) []byte {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantCode, buf.String())
	}
	return buf.Bytes()
}

func createRun(t *testing.T, base string, spec RunSpec) RunStatus {
	t.Helper()
	var st RunStatus
	if err := json.Unmarshal(doJSON(t, "POST", base+"/v1/runs", spec, http.StatusCreated), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getRun(t *testing.T, base, id string) RunStatus {
	t.Helper()
	var st RunStatus
	if err := json.Unmarshal(doJSON(t, "GET", base+"/v1/runs/"+id, nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamRun consumes the NDJSON stream to its terminal line and returns
// every event kind seen plus the final status.
func streamRun(t *testing.T, base, id string) (kinds []string, final streamEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	return readStream(t, resp.Body)
}

// readStream reads an NDJSON stream body to its terminal line.
func readStream(t *testing.T, body io.Reader) (kinds []string, final streamEvent) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "end" {
			return kinds, ev
		}
	}
	t.Fatalf("stream ended without a terminal event (saw %v): %v", kinds, sc.Err())
	return nil, streamEvent{}
}

func waitStatus(t *testing.T, base, id, want string, timeout time.Duration) RunStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getRun(t, base, id)
		if st.Status == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %q (want %q)", id, st.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonConcurrentClients is the tentpole's -race exercise: many
// concurrent HTTP clients create, stream, poll and cancel runs against
// one daemon. Identical requests are served by a single simulation
// (shared singleflight cache), the cancelled run aborts mid-cell in
// about a second, and shutdown leaves no goroutines behind.
func TestDaemonConcurrentClients(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, ts := newTestServer(t, "")

	const clients = 5
	var wg sync.WaitGroup
	results := make([]*ones.Result, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := createRun(t, ts.URL, quickSpec())
			kinds, final := streamRun(t, ts.URL, st.ID)
			if final.Status != StatusDone {
				t.Errorf("client %d: stream ended %q: %s", i, final.Status, final.Error)
				return
			}
			if len(kinds) < 2 || kinds[0] != string(ones.KindRunStart) {
				t.Errorf("client %d: malformed event stream %v", i, kinds)
			}
			done := waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
			results[i] = done.Result
		}(i)
	}

	// A sixth concurrent client starts a long run and cancels it mid-cell.
	wg.Add(1)
	var cancelLatency time.Duration
	go func() {
		defer wg.Done()
		st := createRun(t, ts.URL, slowSpec())
		// Give the cell time to be genuinely mid-flight.
		time.Sleep(300 * time.Millisecond)
		start := time.Now()
		doJSON(t, "DELETE", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusAccepted)
		got := waitStatus(t, ts.URL, st.ID, StatusCancelled, 10*time.Second)
		cancelLatency = time.Since(start)
		if got.Result != nil {
			t.Errorf("cancelled run carries a result")
		}
	}()
	wg.Wait()

	// Identical requests deduplicated: one simulation, shared by all.
	if st := srv.cache.Stats(); st.Computes != 1 {
		t.Errorf("cache stats = %+v, want exactly 1 compute for %d identical runs", st, clients)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("client %d: no result", i)
		}
		if r.MeanJCT != results[0].MeanJCT || r.Makespan != results[0].Makespan {
			t.Errorf("client %d saw a different result than client 0", i)
		}
	}
	if cancelLatency > 3*time.Second {
		t.Errorf("DELETE-to-cancelled took %v, want sub-second-ish mid-cell abort", cancelLatency)
	}

	// Shutdown drains every run goroutine; the HTTP server closes its
	// handlers; nothing may leak.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after shutdown: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runToDone runs quickSpec to completion and checks that it reports its
// one cell done, on GET /v1/runs/{id} and on the stream's end line,
// whether it simulated or was served from the cache.
func runToDone(t *testing.T, base string) RunStatus {
	t.Helper()
	st := createRun(t, base, quickSpec())
	done := waitStatus(t, base, st.ID, StatusDone, 30*time.Second)
	if done.CellsDone != 1 || done.CellsTotal != 1 {
		t.Errorf("run %s: cells_done=%d cells_total=%d, want 1/1", st.ID, done.CellsDone, done.CellsTotal)
	}
	if _, end := streamRun(t, base, st.ID); end.Done != 1 || end.Total != 1 {
		t.Errorf("run %s: stream end line done=%d total=%d, want 1/1", st.ID, end.Done, end.Total)
	}
	return done
}

// TestDaemonWarmRestart: a second server over the same cache directory
// serves an identical run from disk — no simulation — byte-identical to
// the cold result. The cold run, a memo hit on the live daemon and the
// disk hit after the restart each report their one cell done.
func TestDaemonWarmRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, dir)
	cold := runToDone(t, ts1.URL)
	runToDone(t, ts1.URL)
	if cs := srv1.cache.Stats(); cs.Computes != 1 || cs.MemoryHits != 1 {
		t.Errorf("live daemon stats = %+v, want 1 compute and 1 memory hit", cs)
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, ts2 := newTestServer(t, dir)
	defer func() {
		srv2.Shutdown(context.Background())
		ts2.Close()
	}()
	warm := runToDone(t, ts2.URL)
	cs := srv2.cache.Stats()
	if cs.Computes != 0 || cs.DiskHits != 1 {
		t.Errorf("restarted daemon stats = %+v, want a pure disk hit", cs)
	}
	cb, err := json.Marshal(cold.Result)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(warm.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(wb) {
		t.Error("warm-restart result not byte-identical to the cold one")
	}
}

// TestDaemonErrorPaths: bad specs and unknown runs come back as JSON
// error objects with the right status codes.
func TestDaemonErrorPaths(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	body := doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Scheduler: "bogus"}, http.StatusUnprocessableEntity)
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Errorf("unknown scheduler error body %q, want {\"error\": ...}", body)
	}
	if !strings.Contains(e["error"], "bogus") {
		t.Errorf("error %q does not name the offending scheduler", e["error"])
	}
	doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Scenario: "bogus"}, http.StatusUnprocessableEntity)
	// Oversized clusters are rejected before anything is built.
	doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Shape: "2000000000x8"}, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Servers: 2_000_000_000}, http.StatusBadRequest)
	// So are traces and ONES searches too large to hold in memory.
	doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Scheduler: "fifo", Jobs: 1 << 30}, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/runs", RunSpec{Scheduler: "ones", Population: 100_000_000}, http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/v1/runs/run-999999", nil, http.StatusNotFound)
	doJSON(t, "DELETE", ts.URL+"/v1/runs/run-999999", nil, http.StatusNotFound)
	// Unknown spec fields and data after the spec are rejected, not
	// silently ignored — typos in scripts must not silently run the
	// default simulation.
	for body, want := range map[string]int{
		`{"schedulr":"ones"}`:                                             http.StatusBadRequest,
		`{"scheduler":"fifo","jobs":5,"quick":true} garbage`:              http.StatusBadRequest,
		`{"scheduler":"fifo","jobs":5,"quick":true}{"scheduler":"bogus"}`: http.StatusBadRequest,
		"{\"scheduler\":\"fifo\",\"jobs\":5,\"quick\":true}\n":            http.StatusCreated,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %q = %d, want %d", body, resp.StatusCode, want)
		}
		if want == http.StatusBadRequest && !strings.HasPrefix(e["error"], "bad run spec: ") {
			t.Errorf("POST %q error %q, want a \"bad run spec: …\" message", body, e["error"])
		}
	}
}

// TestResponsesAreCompact: every JSON body the daemon writes is compact
// JSON plus the encoder's one trailing newline, like the NDJSON stream's
// lines; a client that wants it pretty pipes it through `jq .`.
func TestResponsesAreCompact(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	created := doJSON(t, "POST", ts.URL+"/v1/runs", quickSpec(), http.StatusCreated)
	var st RunStatus
	if err := json.Unmarshal(created, &st); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
	type response struct {
		name string
		body []byte
	}
	bodies := []response{
		{"POST /v1/runs", created},
		{"GET /v1/runs/{id}", doJSON(t, "GET", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusOK)},
		{"GET /v1/runs", doJSON(t, "GET", ts.URL+"/v1/runs", nil, http.StatusOK)},
		{"DELETE /v1/runs/{id}", doJSON(t, "DELETE", ts.URL+"/v1/runs/"+st.ID, nil, http.StatusAccepted)},
		{"GET /v1/cache", doJSON(t, "GET", ts.URL+"/v1/cache", nil, http.StatusOK)},
		{"GET /v1/runs/{id} 404", doJSON(t, "GET", ts.URL+"/v1/runs/run-999999", nil, http.StatusNotFound)},
	}
	for _, path := range listingPaths {
		bodies = append(bodies, response{"GET " + path, doJSON(t, "GET", ts.URL+path, nil, http.StatusOK)})
	}
	var done RunStatus
	if err := json.Unmarshal(bodies[1].body, &done); err != nil || done.Result == nil {
		t.Fatalf("done run carries no result (%v): %s", err, bodies[1].body)
	}
	for _, b := range bodies {
		var want bytes.Buffer
		if err := json.Compact(&want, b.body); err != nil {
			t.Errorf("%s: %v", b.name, err)
			continue
		}
		want.WriteByte('\n')
		if !bytes.Equal(b.body, want.Bytes()) {
			t.Errorf("%s body is not compact JSON plus one newline:\n%s", b.name, b.body)
		}
	}
}

// listingPaths are the four discovery endpoints whose bodies
// testdata/listings.golden pins.
var listingPaths = []string{"/v1/schedulers", "/v1/scenarios", "/v1/autoscalers", "/v1/experiments"}

// TestDaemonRegistries: the discovery endpoints expose the SDK
// registries.
func TestDaemonRegistries(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	var scheds struct {
		Schedulers []string `json:"schedulers"`
		Paper      []string `json:"paper"`
	}
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/schedulers", nil, http.StatusOK), &scheds); err != nil {
		t.Fatal(err)
	}
	if len(scheds.Schedulers) == 0 || len(scheds.Paper) != 4 {
		t.Errorf("schedulers = %+v", scheds)
	}
	var scns struct {
		Scenarios []ones.ScenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/scenarios", nil, http.StatusOK), &scns); err != nil {
		t.Fatal(err)
	}
	if len(scns.Scenarios) == 0 {
		t.Error("no scenarios listed")
	}
	var exps struct {
		Experiments []ones.ExperimentInfo `json:"experiments"`
	}
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/experiments", nil, http.StatusOK), &exps); err != nil {
		t.Fatal(err)
	}
	if len(exps.Experiments) == 0 {
		t.Error("no experiments listed")
	}
	// The four listings are pinned byte for byte: names, order, titles
	// and field names are part of the daemon's contract.
	var listings bytes.Buffer
	for _, path := range listingPaths {
		fmt.Fprintf(&listings, "GET %s\n", path)
		listings.Write(doJSON(t, "GET", ts.URL+path, nil, http.StatusOK))
	}
	golden, err := os.ReadFile("testdata/listings.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(listings.Bytes(), golden) {
		t.Errorf("listings differ from testdata/listings.golden; got:\n%s", listings.Bytes())
	}
	var cache struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/cache", nil, http.StatusOK), &cache); err != nil {
		t.Fatal(err)
	}
	if !cache.Enabled {
		t.Error("cache endpoint reports disabled on a cache-backed server")
	}
	var list struct {
		Runs []RunStatus `json:"runs"`
	}
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/runs", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 0 {
		t.Errorf("fresh server lists %d runs", len(list.Runs))
	}
	// Listing a finished run returns its status but not the bulky Result.
	st := createRun(t, ts.URL, quickSpec())
	waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
	if err := json.Unmarshal(doJSON(t, "GET", ts.URL+"/v1/runs", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].Status != StatusDone {
		t.Fatalf("list after a run = %+v", list.Runs)
	}
	if list.Runs[0].Result != nil {
		t.Error("list endpoint embeds the full Result; it belongs to GET /v1/runs/{id} only")
	}
}

// TestStreamLateSubscriber: a stream opened after the run finished
// replays the full history and terminates.
func TestStreamLateSubscriber(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	st := createRun(t, ts.URL, quickSpec())
	waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)
	kinds, final := streamRun(t, ts.URL, st.ID)
	if final.Status != StatusDone {
		t.Fatalf("late stream final = %+v", final)
	}
	want := []string{string(ones.KindRunStart), string(ones.KindCellStart), string(ones.KindCellDone), string(ones.KindRunDone), "end"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("late stream kinds = %v, want %v", kinds, want)
	}
}

// TestShutdownRejectsNewRuns: after Shutdown begins, POST /v1/runs
// returns 503.
func TestShutdownRejectsNewRuns(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer ts.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts.URL+"/v1/runs", quickSpec(), http.StatusServiceUnavailable)
}
