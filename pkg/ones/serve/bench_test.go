package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/ones"
)

// BenchmarkGetRun serves GET /v1/runs/{id} for a finished default-scale
// run (120 jobs, Tiresias under spot preemptions) through the daemon's
// handler: the response a polling client sees. computed is the run that
// simulated the cell, whose whole ones.Result is encoded on every GET;
// cached is a later run of the same spec, served from the cache, whose
// body splices the cache entry's shared Result JSON.
func BenchmarkGetRun(b *testing.B) {
	cache, err := ones.NewCache("", func(string, ...any) {})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(cache, nil)
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	finished := func() string {
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
		return target
	}
	computed, cached := finished(), finished()
	for _, bc := range []struct{ name, target string }{{"computed", computed}, {"cached", cached}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if rec := serve("GET", bc.target, ""); rec.Code != http.StatusOK {
					b.Fatalf("GET %s = %d", bc.target, rec.Code)
				}
			}
		})
	}
}
