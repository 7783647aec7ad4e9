// Command onesd is the ONES scheduling daemon: an HTTP control plane
// over the public ones SDK that multiplexes many client sessions in one
// process, shares one singleflight result cache across all of them, and
// (with -cache-dir) persists every completed simulation cell to disk so
// restarts serve warm work without recomputation.
//
//	onesd -addr :8080 -cache-dir /var/cache/onesd
//
//	curl -s localhost:8080/v1/schedulers
//	curl -s -X POST localhost:8080/v1/runs -d '{"scheduler":"ones","jobs":60,"quick":true}'
//	curl -s localhost:8080/v1/runs/run-000001
//	curl -sN localhost:8080/v1/runs/run-000001/stream
//	curl -s -X DELETE localhost:8080/v1/runs/run-000001
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/runs/run-000001/trace
//
// Every daemon serves Prometheus metrics on GET /metrics (engine, cache,
// evolution and HTTP series — see DESIGN.md "Observability"), per-run
// span traces on GET /v1/runs/{id}/trace, liveness on GET /healthz and
// readiness on GET /readyz (503 once shutdown begins). -pprof
// additionally mounts the Go profiler under /debug/pprof/.
//
// Production hardening (all opt-in, see DESIGN.md "Admission & bounded
// state") keeps one cap per store and one setting per protection:
// -max-runs caps the run table, -cache-max-entries the in-memory result
// memo and -cache-max-bytes the -cache-dir files; -auth-token requires a
// bearer token on /v1 (probes and /metrics stay open), -rate-limit adds
// per-endpoint token buckets holding one second's worth of requests
// (429 + Retry-After), and -breaker-backlog sheds run creation with 503s
// while compute is backed up.
//
// See cmd/onesd/README.md for the full endpoint reference and
// DESIGN.md ("Network service") for cache layout and cancellation
// semantics. SIGINT/SIGTERM shut the daemon down gracefully: in-flight
// runs are cancelled (aborting mid-cell within sub-second latency),
// streams receive their terminal event, and the listener drains.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/pkg/ones"
	"repro/pkg/ones/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cache-dir", "", "persist completed simulation cells here (empty: shared in-memory cache only)")
		timeout   = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight runs on shutdown")
		withPprof = flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")

		maxRuns    = flag.Int("max-runs", 0, "cap the run table; oldest finished runs are evicted beyond it (0: unbounded)")
		cacheMax   = flag.Int("cache-max-entries", 0, "cap the in-memory result memo, LRU-evicting completed entries (0: unbounded)")
		cacheBytes = flag.Int64("cache-max-bytes", 0, "cap the -cache-dir size in bytes, removing oldest files (0: unbounded)")

		authToken  = flag.String("auth-token", "", "require this bearer token on /v1 endpoints (empty: no auth)")
		rateLimit  = flag.Float64("rate-limit", 0, "per-endpoint requests per second, with one second's worth of burst; excess answered 429 (0: unlimited)")
		brkBacklog = flag.Int("breaker-backlog", 0, "shed run creation with 503s for 5s once this many runs execute concurrently (0: disabled)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "onesd: ", log.LstdFlags)

	cache, err := ones.NewCache(*cacheDir, logger.Printf)
	if err != nil {
		logger.Fatal(err)
	}
	if *cacheDir != "" {
		logger.Printf("persisting cells to %s", *cacheDir)
	}
	cache.SetLimits(ones.CacheLimits{MaxEntries: *cacheMax, MaxDiskBytes: *cacheBytes})

	metrics := ones.NewMetrics()
	srv := serve.New(cache, logger, serve.WithMetrics(metrics), serve.WithConfig(serve.Config{
		MaxRuns:        *maxRuns,
		AuthToken:      *authToken,
		RatePerSec:     *rateLimit,
		BreakerBacklog: *brkBacklog,
	}))
	handler := srv.Handler()
	if *withPprof {
		// Mount the profiler on an outer mux so the API handler stays
		// unaware of it; /debug/pprof/ is index + named profiles.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = outer
		logger.Printf("profiling enabled under /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down (signal)")
	case err := <-errc:
		logger.Fatalf("listen: %v", err)
	}

	// Cancel every in-flight run first — mid-cell cancellation makes
	// this sub-second — so streaming handlers reach their terminal event
	// and the HTTP drain below completes promptly.
	shutCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("run drain: %v", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Printf("http drain: %v", err)
	}
	fmt.Fprintln(os.Stderr, "onesd: bye")
}
