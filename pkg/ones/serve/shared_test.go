package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/pkg/ones"
)

// sharedSpecs are the cells the shared-JSON tests serve from the cache:
// a plain one, one with an event log, an autoscaled one and a shaped one
// with racks.
func sharedSpecs() map[string]RunSpec {
	events := quickSpec()
	events.RecordEvents = true
	return map[string]RunSpec{
		"plain":      quickSpec(),
		"event log":  events,
		"autoscaled": reactiveSpec(),
		"shaped": {Scheduler: "fifo", Shape: "2x4,1x8", Scenario: "rack-drain",
			Jobs: 10, Interarrival: 25, Seed: 7, Quick: true},
	}
}

// resultTail returns body from its "result" field on.
func resultTail(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`"result":`))
	if i < 0 {
		t.Fatalf("body carries no result: %s", body)
	}
	return body[i:]
}

// runDone creates a run of spec, waits for it and returns its id and
// its GET body.
func runDone(t *testing.T, base string, spec RunSpec) (string, []byte) {
	t.Helper()
	st := createRun(t, base, spec)
	waitStatus(t, base, st.ID, StatusDone, 30*time.Second)
	return st.ID, doJSON(t, "GET", base+"/v1/runs/"+st.ID, nil, http.StatusOK)
}

// TestCacheServedBodiesMatchEncoder: a cache-served run is written by
// splicing its cell's shared Result JSON into the status body. Every GET
// and DELETE body of such a run must equal what writeJSON writes for the
// same RunStatus, with the Result decoded from the body, and its result
// must be byte for byte the one the run that computed the cell served.
// The runs cover memory hits (the first one encodes the entry's JSON,
// later ones reuse it) and disk hits after a restart.
func TestCacheServedBodiesMatchEncoder(t *testing.T) {
	dir := t.TempDir()
	check := func(t *testing.T, srv *Server, base, id string, want []byte) {
		t.Helper()
		r, ok := srv.get(id)
		if !ok {
			t.Fatalf("run %s is gone", id)
		}
		if _, raw := r.snapshot(); raw == nil {
			t.Fatalf("run %s holds no shared JSON: the cache did not serve it", id)
		}
		for _, body := range [][]byte{
			doJSON(t, "GET", base+"/v1/runs/"+id, nil, http.StatusOK),
			doJSON(t, "DELETE", base+"/v1/runs/"+id, nil, http.StatusAccepted),
		} {
			var st RunStatus
			if err := json.Unmarshal(body, &st); err != nil || st.Status != StatusDone || st.Result == nil {
				t.Fatalf("run %s body is not a done run with a result (%v): %s", id, err, body)
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, st)
			if !bytes.Equal(body, rec.Body.Bytes()) {
				t.Errorf("run %s body differs from writeJSON's:\n got  %s\n want %s", id, body, rec.Body.Bytes())
			}
			if !bytes.Equal(resultTail(t, body), want) {
				t.Errorf("run %s result differs from the computed run's", id)
			}
		}
	}

	cold := map[string][]byte{}
	srv, ts := newTestServer(t, dir)
	for name, spec := range sharedSpecs() {
		id, body := runDone(t, ts.URL, spec)
		if r, _ := srv.get(id); r != nil {
			if _, raw := r.snapshot(); raw != nil {
				t.Fatalf("%s: the computing run holds shared JSON", name)
			}
		}
		cold[name] = bytes.Clone(resultTail(t, body))
		for range 2 {
			id, _ := runDone(t, ts.URL, spec)
			check(t, srv, ts.URL, id, cold[name])
		}
	}
	srv.Shutdown(context.Background())
	ts.Close()

	srv, ts = newTestServer(t, dir)
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	for name, spec := range sharedSpecs() {
		for range 2 {
			id, _ := runDone(t, ts.URL, spec)
			check(t, srv, ts.URL, id, cold[name])
		}
	}
	if st := srv.cache.Stats(); st.Computes != 0 || st.DiskHits != len(cold) {
		t.Errorf("restarted daemon stats = %+v, want %d disk hits and no computes", st, len(cold))
	}
}

// TestSharedResultConcurrentGets has many clients GET runs that share
// one cache entry's JSON at once, so the race detector sees every reader
// of the shared bytes: every body's result must be the same.
func TestSharedResultConcurrentGets(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	spec := quickSpec()
	spec.RecordEvents = true
	_, body := runDone(t, ts.URL, spec)
	want := bytes.Clone(resultTail(t, body))
	var ids []string
	for range 4 {
		id, _ := runDone(t, ts.URL, spec)
		ids = append(ids, id)
	}
	const clients, gets = 8, 10
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range gets {
				url := ts.URL + "/v1/runs/" + ids[(c+i)%len(ids)]
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				i := bytes.Index(buf.Bytes(), []byte(`"result":`))
				if resp.StatusCode != http.StatusOK || i < 0 || !bytes.Equal(buf.Bytes()[i:], want) {
					t.Errorf("GET %s = %d, result differs from the computed run's", url, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestComputedRunKeepsOneResult: a run that simulated its cell keeps the
// Result its cell-done event carries, so the struct GET serves is that
// event's, not a second copy of it.
func TestComputedRunKeepsOneResult(t *testing.T) {
	srv, ts := newTestServer(t, "")
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()
	for name, spec := range sharedSpecs() {
		id, _ := runDone(t, ts.URL, spec)
		r, ok := srv.get(id)
		if !ok {
			t.Fatalf("%s: run %s is gone", name, id)
		}
		st, raw := r.snapshot()
		if raw != nil || st.Result == nil {
			t.Fatalf("%s: run %s was not computed here", name, id)
		}
		events, _, _ := r.since(0)
		var carried *ones.Result
		for _, p := range events {
			if p.Kind == ones.KindCellDone {
				carried = p.Result
			}
		}
		if carried == nil || st.Result != carried {
			t.Errorf("%s: GET serves Result %p, the cell-done event carries %p", name, st.Result, carried)
		}
	}
}
