package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkGetRun serves GET /v1/runs/{id} for one finished
// default-scale run (120 jobs, Tiresias under spot preemptions) through
// the daemon's handler: the warm-hit response a polling client sees,
// dominated by encoding the whole ones.Result.
func BenchmarkGetRun(b *testing.B) {
	srv := New(nil, nil)
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}

	rec := serve("POST", "/v1/runs", `{"scheduler":"tiresias","scenario":"spot"}`)
	var st RunStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusCreated || err != nil {
		b.Fatalf("POST /v1/runs = %d (%v): %s", rec.Code, err, rec.Body)
	}
	target := "/v1/runs/" + st.ID
	deadline := time.Now().Add(time.Minute)
	for st.Status == StatusRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		rec = serve("GET", target, "")
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
	}
	if st.Status != StatusDone || len(st.Result.Jobs) != 120 {
		b.Fatalf("run %s is %q (%s), want done with the default 120 jobs", st.ID, st.Status, st.Error)
	}
	b.ReportAllocs()
	for b.Loop() {
		if rec := serve("GET", target, ""); rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d", target, rec.Code)
		}
	}
}
