// Package ones is the public SDK of the ONES reproduction — the single
// supported way for other programs to embed and drive the scheduler,
// simulator and experiment suite. The internal packages behind it may
// change freely between versions; this surface is stable.
//
// A Session is configured once with functional options and then runs any
// number of simulations through a shared, memoized worker pool:
//
//	s, err := ones.New(
//		ones.WithScheduler("ones"),
//		ones.WithScenario("diurnal+spot"),
//		ones.WithTopology(4, 4),
//		ones.WithTrace(ones.Trace{Jobs: 12, MeanInterarrival: 30, MaxGPUs: 4}),
//		ones.WithSeed(7),
//	)
//	if err != nil { ... }
//	res, err := s.Run(ctx)
//
// Clusters are homogeneous by default (WithTopology); WithShape
// describes a mixed fleet — per-server GPU counts in rack-level failure
// domains, e.g. "4x8,2x4" — that rack-aware scenarios ("rack-drain")
// can break realistically, with Result.Racks and
// Result.RackDrainEvictions reporting the damage. The package's
// Example functions (run by go test) are the maintained walkthroughs of
// these paths.
//
// Every run takes a context.Context. Cancellation reaches inside cells:
// queued simulations never start, and running ones abort mid-run (the
// simulator polls the context every 1024 events, ONES's search between
// candidate tasks) and return ctx.Err(). Nothing of an aborted cell is
// cached, and the call returns only once its workers have drained — no
// goroutine outlives a cancelled call, and rerunning with a live context
// yields exactly the results the uncancelled run would have (results are
// byte-identical for a given seed at any worker count).
//
// Progress and live metrics stream through the Observer interface (see
// WithObserver). Lookup
// failures wrap the typed sentinel errors ErrUnknownScheduler,
// ErrUnknownScenario and ErrUnknownExperiment, so callers can
// errors.Is-match them without parsing messages.
//
// Session.RunExperiment regenerates any of the paper's registered
// figures and tables ("fig15", "table4", …); Experiments, Schedulers and
// Scenarios enumerate what a session can run. GenerateTrace exposes the
// workload generator for scripting, and StartLiveJob the goroutine
// mini-cluster behind the paper's elastic-scaling measurements.
package ones
