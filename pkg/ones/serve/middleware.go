package serve

import (
	"crypto/subtle"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// middleware wraps a handler with one admission concern. The chain
// helper composes them outermost-first; a nil middleware (a disabled
// concern) composes as the identity, so the route table never branches
// on configuration.
type middleware func(http.Handler) http.Handler

// chain applies mws to h, first element outermost. Nil entries are
// skipped.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] != nil {
			h = mws[i](h)
		}
	}
	return h
}

// authMiddleware enforces bearer-token auth when Config.AuthToken is
// set: every /v1 request must carry "Authorization: Bearer <token>" or
// is answered 401 (constant-time comparison; failures counted in
// onesd_auth_failures_total). The probe endpoints — /healthz, /readyz —
// and /metrics stay exempt so load balancers and scrapers need no
// credentials. Nil (identity) when auth is disabled.
func (s *Server) authMiddleware() middleware {
	token := s.cfg.AuthToken
	if token == "" {
		return nil
	}
	want := []byte("Bearer " + token)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			got := []byte(req.Header.Get("Authorization"))
			if subtle.ConstantTimeCompare(got, want) != 1 {
				s.authFails.Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="onesd"`)
				writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token"))
				return
			}
			next.ServeHTTP(w, req)
		})
	}
}

// bucket is one endpoint's token bucket: tokens refill continuously at
// rate per second up to burst; each admitted request spends one.
type bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// take spends one token, reporting success and — on refusal — how long
// until the next token accrues (the Retry-After hint).
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*now.Sub(b.last).Seconds())
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// rateLimitMiddleware applies a per-endpoint token bucket when
// Config.RatePerSec is positive. Each route owns an independent bucket
// (created here, at registration), so a burst against one endpoint
// never starves another; a bucket holds one second's worth of tokens,
// at least one. Refusals are 429 with an integer Retry-After (seconds,
// rounded up, at least 1) and counted per endpoint in
// onesd_rate_limited_total. Nil (identity) when rate limiting is
// disabled.
func (s *Server) rateLimitMiddleware(pattern string) middleware {
	if s.cfg.RatePerSec <= 0 {
		return nil
	}
	burst := max(s.cfg.RatePerSec, 1)
	b := &bucket{rate: s.cfg.RatePerSec, burst: burst, tokens: burst}
	limited := s.rateLimited.With(pattern)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// s.now is read at request time so tests can inject a clock
			// after construction.
			ok, retry := b.take(s.now())
			if !ok {
				limited.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				writeError(w, http.StatusTooManyRequests, fmt.Errorf("rate limit exceeded for %s", pattern))
				return
			}
			next.ServeHTTP(w, req)
		})
	}
}

// retryAfterSeconds renders a wait as the integer seconds HTTP wants:
// rounded up, never below 1 (a 0 would invite an immediate retry).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// breakerCooldown is how long the breaker sheds, once open, before it
// looks at the backlog again.
const breakerCooldown = 5 * time.Second

// breaker is the run-creation circuit breaker: it watches the compute
// backlog (runs currently executing) and sheds new-run load with 503s
// once the backlog reaches maxBacklog, instead of letting every burst
// stack goroutines behind a saturated worker pool. Open, it sheds for
// breakerCooldown without looking at the backlog; the first request
// after that re-opens it if the backlog is still full, and closes it
// and is admitted if the backlog has drained.
type breaker struct {
	maxBacklog int
	now        func() time.Time
	backlog    func() int

	mu        sync.Mutex
	openUntil time.Time // zero while closed

	// Nil-safe obs handles.
	rejected    *obs.Counter
	transitions *obs.CounterVec
	stateGauge  *obs.Gauge // 0 closed, 2 open
}

// allow decides one admission: true admits the request; false sheds it
// with the suggested Retry-After.
func (b *breaker) allow() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if now.Before(b.openUntil) {
		b.rejected.Inc()
		return false, b.openUntil.Sub(now)
	}
	if b.backlog() >= b.maxBacklog {
		b.openUntil = now.Add(breakerCooldown)
		b.transitions.With("open").Inc()
		b.stateGauge.Set(2)
		b.rejected.Inc()
		return false, breakerCooldown
	}
	if !b.openUntil.IsZero() {
		b.openUntil = time.Time{}
		b.transitions.With("closed").Inc()
		b.stateGauge.Set(0)
	}
	return true, 0
}

// breakerMiddleware sheds run creation while compute is backed up
// (Config.BreakerBacklog in-flight runs): 503 + Retry-After, counted in
// onesd_breaker_rejected_total. Only POST /v1/runs is wrapped — reads,
// streams and cancellations must keep working while the daemon sheds
// new work. Nil (identity) when the breaker is disabled.
func (s *Server) breakerMiddleware() middleware {
	if s.breaker == nil {
		return nil
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			ok, retry := s.breaker.allow()
			if !ok {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf("compute backlog full; retry later"))
				return
			}
			next.ServeHTTP(w, req)
		})
	}
}
