// Command onesbench is the repository's end-to-end benchmark. It drives a
// real onesd daemon, started as a child process, with two closed-loop
// clients over loopback: each request is POST /v1/runs, then the run's
// NDJSON stream to its end line, then GET /v1/runs/{id}, and every Result
// is checked for structure and against a reference digest. With -trace 1
// it also replays the same requests against an in-process serve.Server
// under a CPU profile and span tracing, and reports per-layer metrics.
//
// Build onesd and this command, then run one workload from the
// repository root:
//
//	bash onesbench/run.sh --workload ones-cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. See onesbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/pkg/ones/serve"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is
// their median.
const setupRepeats = 3

// minSamples is the fewest timed requests a run makes, so that its p90
// has ten samples beyond it.
const minSamples = 100

type options struct {
	seed    int64
	seconds float64
	onesd   string // daemon binary
	workdir string // cache directories go here
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ones-cold, baseline-cold or warm-mixed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "how long the timed phase runs")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced replay instead of end-to-end metrics")
		onesd   = flag.String("onesd", ".bench_build/bin/onesd", "onesd binary")
		workdir = flag.String("workdir", ".bench_build", "directory for the daemons' cache directories")
		record  = flag.String("record", "", "write the reference digests of the named cold workload's pool to stdout and exit")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("onesbench: ")
	o := options{seed: *seed, seconds: *seconds, onesd: *onesd, workdir: *workdir}

	if *record != "" {
		if err := recordPool(*record, o); err != nil {
			log.Fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	var rep report
	switch *trace {
	case 0:
		rep, err = runUntraced(w, o)
	case 1:
		rep, err = runTraced(w, o)
	default:
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// runUntraced sets the workload up setupRepeats times, each time from a
// fresh daemon and cache, then times the requests on the last daemon and
// reports the end-to-end metrics.
func runUntraced(w workload, o options) (report, error) {
	chk, err := newChecker()
	if err != nil {
		return report{}, err
	}
	var (
		d         *daemon
		dir       string
		setups    []float64
		setupFail int
		setupN    int
	)
	defer func() {
		if d != nil {
			d.stop()
		}
		os.RemoveAll(dir)
	}()
	for range setupRepeats {
		if d != nil {
			d.stop()
			d = nil
			os.RemoveAll(dir)
		}
		start := time.Now()
		if d, dir, err = launch(w, o); err != nil {
			return report{}, err
		}
		c := newClient(d.base)
		failed, n := prepare(c, w, o.seed, chk)
		c.close()
		setups = append(setups, time.Since(start).Seconds())
		setupFail += failed
		setupN += n
	}

	seq := &sequence{gen: w.request(o.seed)}
	p, err := measureDaemon(d, seq, chk, o)
	if err != nil {
		return report{}, err
	}
	p50, err1 := percentile(p.lat, 0.5)
	p90, err2 := percentile(p.lat, 0.9)
	if err := errors.Join(err1, err2); err != nil {
		return report{}, err
	}
	log.Printf("%s seed %d: %d requests in %.1fs, %d failed; set-ups %.3v s", w.name, o.seed, p.n, p.elapsed.Seconds(), p.failed, setups)
	return report{
		Correct:   setupFail+p.failed == 0,
		Attempted: setupN + p.n,
		Failed:    setupFail + p.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"req_per_s":      {p.rate(), "1/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p90_ms": {p90, "ms"},
			"cpu_ms_per_req": {ms(p.cpu) / float64(p.n), "ms"},
			"rss_p50_mb":     {median(p.rss), "MB"},
		},
	}, nil
}

// runTraced measures the untraced daemon once, then replays exactly the
// requests it completed against two fresh in-process servers, untraced and
// then traced with a CPU profile, checks that all three produced the same
// Result digests, and reports the per-layer metrics.
func runTraced(w workload, o options) (report, error) {
	chk, err := newChecker()
	if err != nil {
		return report{}, err
	}
	d, dir, err := launch(w, o)
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	c := newClient(d.base)
	failed, attempted := prepare(c, w, o.seed, chk)
	c.close()
	seq := &sequence{gen: w.request(o.seed)}
	dm, err := measureDaemon(d, seq, chk, o)
	d.stop()
	if err != nil {
		return report{}, err
	}
	u, err := replay(w, o, seq, dm.n, chk, false)
	if err != nil {
		return report{}, err
	}
	t, err := replay(w, o, seq, dm.n, chk, true)
	if err != nil {
		return report{}, err
	}
	mismatch := 0
	for i, want := range dm.digests {
		if want == "" || u.digests[i] != want || t.digests[i] != want {
			mismatch++
		}
	}
	log.Printf("%s seed %d: %d requests; daemon %.2f/s, in-process %.2f/s, traced %.2f/s; %d digest mismatches",
		w.name, o.seed, dm.n, dm.rate(), u.rate(), t.rate(), mismatch)
	failed += dm.failed + u.failed + t.failed + mismatch
	return report{
		Correct:   failed == 0,
		Attempted: attempted + dm.n + u.n + t.n,
		Failed:    failed,
		Metrics:   layerMetrics(u.phase, t, os.Stderr),
	}, nil
}

// launch starts a daemon with the workload's flags over a fresh cache
// directory when the workload persists.
func launch(w workload, o options) (*daemon, string, error) {
	dir, err := cacheDir(w, o)
	if err != nil {
		return nil, "", err
	}
	var args []string
	if dir != "" {
		args = append(args, "-cache-dir", dir)
	}
	if w.maxEntries > 0 {
		args = append(args, "-cache-max-entries", strconv.Itoa(w.maxEntries))
	}
	d, err := startDaemon(o.onesd, args...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return d, dir, nil
}

// cacheDir makes a fresh, empty cache directory under the work directory
// for a workload that persists, and returns "" for one that does not.
func cacheDir(w workload, o options) (string, error) {
	if !w.cacheDir {
		return "", nil
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(o.workdir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, "cache-")
}

// prepare issues the workload's set-up requests with the closed loop and
// returns how many failed and how many were made.
func prepare(c *client, w workload, seed int64, chk *checker) (failed, n int) {
	specs := w.setup(seed)
	seq := &sequence{gen: func(i int) serve.RunSpec { return specs[i] }}
	p := timed(c, seq, chk, func(i int) bool { return i < len(specs) }, nil)
	return p.failed, p.n
}

// phase is what one closed-loop pass over a sequence measured.
type phase struct {
	n       int
	elapsed time.Duration
	failed  int
	lat     []float64 // ms, successful requests only
	digests []string  // by request index; "" for a failed request
	cpu     time.Duration
	rss     []float64
}

func (p phase) rate() float64 { return float64(p.n) / p.elapsed.Seconds() }

// timed runs seq through the closed loop while more(i) holds, checking
// every response; each success is also handed to each, if set.
func timed(c *client, seq *sequence, chk *checker, more func(i int) bool, each func(i int, cl call)) phase {
	var (
		mu sync.Mutex
		p  phase
	)
	p.n, p.elapsed = loop(more, func(i int) {
		spec := seq.at(i)
		cl, err := c.run(spec, tagOf(i))
		digest := ""
		if err == nil {
			digest, err = chk.check(spec, cl.body)
		}
		if err == nil && each != nil {
			each(i, cl)
		}
		mu.Lock()
		defer mu.Unlock()
		for len(p.digests) <= i {
			p.digests = append(p.digests, "")
		}
		if err != nil {
			p.failed++
			log.Printf("request %d: %v", i, err)
			return
		}
		p.digests[i] = digest
		p.lat = append(p.lat, ms(cl.latency()))
	})
	return p
}

// measureDaemon times the workload's requests against d for the run
// length (and at least minSamples requests), sampling the daemon's CPU
// time and resident memory.
func measureDaemon(d *daemon, seq *sequence, chk *checker, o options) (phase, error) {
	c := newClient(d.base)
	defer c.close()
	cpu0, err := d.cpu()
	if err != nil {
		return phase{}, err
	}
	var (
		rss  []float64
		stop = make(chan struct{})
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if mb, err := d.rssMB(); err == nil {
					rss = append(rss, mb)
				}
			}
		}
	}()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	p := timed(c, seq, chk, func(i int) bool { return i < minSamples || time.Now().Before(deadline) }, nil)
	close(stop)
	<-done
	cpu1, err := d.cpu()
	if err != nil {
		return phase{}, err
	}
	p.cpu, p.rss = cpu1-cpu0, rss
	if len(rss) == 0 {
		return phase{}, errors.New("no RSS samples")
	}
	return p, nil
}

func tagOf(i int) string { return strconv.Itoa(i) }

// recordPool computes every cell of a cold workload's pool on an
// in-process server and prints their digests, one per line in pool order:
//
//	cd onesbench && go run . -record ones-cold > reference/ones-cold.txt
func recordPool(name string, o options) error {
	for _, pool := range pools {
		if pool.name != name {
			continue
		}
		p, err := startInProcess(workload{maxEntries: 16}, "", false)
		if err != nil {
			return err
		}
		defer p.close()
		c := newClient(p.http.URL)
		defer c.close()
		chk := newEmptyChecker()
		seq := &sequence{gen: pool.spec}
		ph := timed(c, seq, chk, func(i int) bool { return i < pool.size }, nil)
		if ph.failed > 0 {
			return fmt.Errorf("%d of %d cells failed", ph.failed, pool.size)
		}
		for _, d := range ph.digests {
			fmt.Println(d)
		}
		return nil
	}
	return fmt.Errorf("no recorded pool for %q", name)
}
