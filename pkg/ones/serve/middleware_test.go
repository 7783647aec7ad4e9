package serve

import (
	"context"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
)

// doAuth issues one request with an optional bearer token and returns
// the response (body closed) for status/header checks.
func doAuth(t *testing.T, method, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestAuthMiddleware tables the bearer-token contract: every /v1 route
// demands the exact token (401 otherwise, counted), while the probe and
// scrape endpoints stay open.
func TestAuthMiddleware(t *testing.T) {
	srv, m, ts := newHardenedServer(t, "", Config{AuthToken: "sekrit"}, nil)
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	cases := []struct {
		name   string
		method string
		path   string
		token  string
		want   int
	}{
		{"v1 no token", "GET", "/v1/schedulers", "", http.StatusUnauthorized},
		{"v1 wrong token", "GET", "/v1/schedulers", "wrong", http.StatusUnauthorized},
		{"v1 right token", "GET", "/v1/schedulers", "sekrit", http.StatusOK},
		{"create no token", "POST", "/v1/runs", "", http.StatusUnauthorized},
		{"list right token", "GET", "/v1/runs", "sekrit", http.StatusOK},
		{"healthz open", "GET", "/healthz", "", http.StatusOK},
		{"readyz open", "GET", "/readyz", "", http.StatusOK},
		{"metrics open", "GET", "/metrics", "", http.StatusOK},
	}
	wantFails := uint64(0)
	for _, tc := range cases {
		resp := doAuth(t, tc.method, ts.URL+tc.path, tc.token)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusUnauthorized {
			wantFails++
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Errorf("%s: 401 without a WWW-Authenticate challenge", tc.name)
			}
		}
	}
	if got := m.Registry().CounterValue("onesd_auth_failures_total"); got != wantFails {
		t.Errorf("onesd_auth_failures_total = %d, want %d", got, wantFails)
	}
}

// TestRateLimitMiddleware tables the per-endpoint token bucket: the
// burst (one second's worth) admits, the next request 429s with a sane
// Retry-After and a counted rejection, other endpoints keep their own
// untouched bucket, and the bucket refills as the (injected) clock
// advances. Below one request a second the bucket still holds one token.
func TestRateLimitMiddleware(t *testing.T) {
	fc := newFakeClock()
	srv, m, ts := newHardenedServer(t, "", Config{RatePerSec: 2},
		func(s *Server) { s.now = fc.now })
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	for i := 0; i < 2; i++ {
		if resp := doAuth(t, "GET", ts.URL+"/v1/schedulers", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := doAuth(t, "GET", ts.URL+"/v1/schedulers", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("429 Retry-After = %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	// Buckets are per endpoint: a sibling route is unaffected by the burst.
	if resp := doAuth(t, "GET", ts.URL+"/v1/scenarios", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("sibling endpoint rate-limited by another endpoint's burst: %d", resp.StatusCode)
	}
	// Probes are never rate limited.
	for i := 0; i < 5; i++ {
		if resp := doAuth(t, "GET", ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz rate-limited: %d", resp.StatusCode)
		}
	}
	if got := m.Registry().CounterValue("onesd_rate_limited_total", "GET /v1/schedulers"); got != 1 {
		t.Errorf("onesd_rate_limited_total{GET /v1/schedulers} = %d, want 1", got)
	}
	if got := m.Registry().CounterValue("onesd_rate_limited_total", "GET /v1/scenarios"); got != 0 {
		t.Errorf("onesd_rate_limited_total{GET /v1/scenarios} = %d, want 0", got)
	}
	// Two tokens accrue per second of clock.
	fc.advance(750 * time.Millisecond)
	if resp := doAuth(t, "GET", ts.URL+"/v1/schedulers", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("post-refill status %d, want 200", resp.StatusCode)
	}

	// Half a request a second: a one-token burst, then a 2 s wait.
	slow, _, slowTS := newHardenedServer(t, "", Config{RatePerSec: 0.5},
		func(s *Server) { s.now = fc.now })
	defer func() {
		slow.Shutdown(context.Background())
		slowTS.Close()
	}()
	if resp := doAuth(t, "GET", slowTS.URL+"/v1/schedulers", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("RatePerSec 0.5: first request status %d, want 200", resp.StatusCode)
	}
	resp = doAuth(t, "GET", slowTS.URL+"/v1/schedulers", "")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "2" {
		t.Errorf("RatePerSec 0.5: second request status %d Retry-After %q, want 429 and 2",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestBreakerStateMachine unit-tests the circuit breaker against an
// injected clock and backlog: closed admits, a full backlog opens it,
// the open breaker sheds without looking at the backlog until the
// cooldown lapses, then a full backlog re-opens it and a drained one
// closes it.
func TestBreakerStateMachine(t *testing.T) {
	fc := newFakeClock()
	backlog := 0
	reg := obs.NewRegistry()
	b := &breaker{
		maxBacklog:  2,
		now:         fc.now,
		backlog:     func() int { return backlog },
		rejected:    reg.Counter("rej", "test"),
		transitions: reg.CounterVec("trans", "test", "to"),
		stateGauge:  reg.Gauge("state", "test"),
	}

	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker with empty backlog rejected")
	}
	backlog = 2
	ok, retry := b.allow()
	if ok || retry != breakerCooldown {
		t.Fatalf("full backlog: allow = (%v, %v), want shed with the full cooldown", ok, retry)
	}
	if g := reg.GaugeValue("state"); g != 2 {
		t.Errorf("state gauge = %v after opening, want 2", g)
	}
	// Open sheds WITHOUT probing: even a drained backlog waits out the
	// cooldown (that hold time is what lets compute actually drain).
	backlog = 0
	fc.advance(breakerCooldown / 2)
	ok, retry = b.allow()
	if ok || retry != breakerCooldown/2 {
		t.Fatalf("mid-cooldown: allow = (%v, %v), want shed with the remaining %v", ok, retry, breakerCooldown/2)
	}
	// Cooldown over, backlog full again: the breaker re-opens for a
	// fresh cooldown.
	backlog = 2
	fc.advance(breakerCooldown/2 + 100*time.Millisecond)
	if ok, _ = b.allow(); ok {
		t.Fatal("full backlog after the cooldown admitted")
	}
	if got := reg.CounterValue("trans", "open"); got != 2 {
		t.Errorf("open transitions = %d, want 2", got)
	}
	// Drained after the second cooldown: the breaker closes and admits.
	backlog = 0
	fc.advance(2 * breakerCooldown)
	if ok, _ = b.allow(); !ok {
		t.Fatal("drained backlog after the cooldown rejected")
	}
	if g := reg.GaugeValue("state"); g != 0 {
		t.Errorf("state gauge = %v after recovery, want 0 (closed)", g)
	}
	if got := reg.CounterValue("trans", "closed"); got != 1 {
		t.Errorf("closed transitions = %d, want 1", got)
	}
	if got := reg.CounterValue("rej"); got != 3 {
		t.Errorf("rejected counter = %d, want 3", got)
	}
}

// TestBreakerShedsRunCreation exercises the breaker end-to-end: with one
// run executing against BreakerBacklog=1, a second POST /v1/runs is shed
// 503 + Retry-After, reads and cancellation keep working while shedding,
// and once the backlog drains and the cooldown lapses creation recovers.
func TestBreakerShedsRunCreation(t *testing.T) {
	fc := newFakeClock()
	srv, m, ts := newHardenedServer(t, "", Config{BreakerBacklog: 1},
		func(s *Server) { s.now = fc.now })
	defer func() {
		srv.Shutdown(context.Background())
		ts.Close()
	}()

	slow := createRun(t, ts.URL, slowSpec())
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST against a full backlog: status %d, want 503", resp.StatusCode)
	}
	if retry, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || retry < 1 {
		t.Errorf("503 Retry-After = %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	// Reads and cancellation are never shed — that is how the backlog drains.
	getRun(t, ts.URL, slow.ID)
	doJSON(t, "DELETE", ts.URL+"/v1/runs/"+slow.ID, nil, http.StatusAccepted)
	waitStatus(t, ts.URL, slow.ID, StatusCancelled, 10*time.Second)

	fc.advance(2 * breakerCooldown) // past the cooldown: the breaker sees a drained backlog
	st := createRun(t, ts.URL, quickSpec())
	waitStatus(t, ts.URL, st.ID, StatusDone, 30*time.Second)

	if got := m.Registry().CounterValue("onesd_breaker_rejected_total"); got != 1 {
		t.Errorf("onesd_breaker_rejected_total = %d, want 1", got)
	}
	if got := m.Registry().CounterValue("onesd_breaker_transitions_total", "closed"); got != 1 {
		t.Errorf("breaker closed transitions = %d, want 1", got)
	}
}
