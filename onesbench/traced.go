package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/pkg/ones"
	"repro/pkg/ones/serve"
)

// inProcess is a serve.Server inside the benchmark process, behind a
// timing middleware, with telemetry and span tracing on.
type inProcess struct {
	srv     *serve.Server
	http    *httptest.Server
	metrics *ones.Metrics
	timing  *timings
	once    sync.Once
}

// startInProcess builds the server a daemon with w's flags would run,
// over a cache persisting to dir ("" for memory only), with the timing
// middleware when traced.
func startInProcess(w workload, dir string, traced bool) (*inProcess, error) {
	cache, err := ones.NewCache(dir, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	cache.SetLimits(ones.CacheLimits{MaxEntries: w.maxEntries})
	p := &inProcess{metrics: ones.NewMetrics(), timing: &timings{byTag: map[string]*[3]interval{}}}
	p.srv = serve.New(cache, log.New(io.Discard, "", 0),
		serve.WithMetrics(p.metrics), serve.WithConfig(serve.Config{MaxRuns: 64}))
	h := p.srv.Handler()
	if traced {
		h = p.timing.wrap(h)
	}
	p.http = httptest.NewServer(h)
	return p, nil
}

// close shuts the server down and waits for every handler to return.
func (p *inProcess) close() {
	p.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = p.srv.Shutdown(ctx) // every run has finished; a timeout only delays exit
		p.http.Close()
	})
}

// timings is the benchmark-side timing middleware around Server.Handler:
// it records when each of a request's three handlers ran.
type timings struct {
	mu    sync.Mutex
	byTag map[string]*[3]interval
}

func (t *timings) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		iv := interval{from: time.Now()}
		h.ServeHTTP(w, r)
		iv.to = time.Now()
		tag := r.Header.Get(tagHeader)
		if tag == "" {
			return
		}
		kind := callResult
		switch {
		case r.Method == http.MethodPost:
			kind = callCreate
		case strings.HasSuffix(r.URL.Path, "/stream"):
			kind = callStream
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		calls := t.byTag[tag]
		if calls == nil {
			calls = &[3]interval{}
			t.byTag[tag] = calls
		}
		calls[kind] = iv
	})
}

// spans are the durations (ms) one run's span tree records.
type spans struct {
	run, cell, queued, traceGen, simulate float64
	intervals                             []float64 // evolution-interval spans
	dropped                               int       // spans the bounded trace refused
}

func readSpans(root *ones.TraceNode) spans {
	s := spans{run: root.DurationMS, dropped: root.DroppedSpans}
	var walk func(n *ones.TraceNode)
	walk = func(n *ones.TraceNode) {
		for _, c := range n.Children {
			switch {
			case strings.HasPrefix(c.Name, "cell "):
				s.cell += c.DurationMS
			case c.Name == "queued":
				s.queued += c.DurationMS
			case c.Name == "trace-gen":
				s.traceGen += c.DurationMS
			case c.Name == "simulate":
				s.simulate += c.DurationMS
			case c.Name == "evolution-interval":
				s.intervals = append(s.intervals, c.DurationMS)
			}
			walk(c)
		}
	}
	walk(root)
	return s
}

// traced is what the traced replay measured.
type traced struct {
	phase
	spans    []spans
	handlers [][3]interval // server-side handler times, by request
	calls    [][3]interval // client-side call times, by request
	bytes    []float64
	before   ones.MetricsSnapshot
	after    ones.MetricsSnapshot
	alloc    uint64 // bytes allocated by the whole process during the replay
	profile  []cpuSample
}

// replay replays requests 0..n-1 of seq against a fresh in-process
// server prepared like the daemon was. Traced, it also records each
// request's span tree, the middleware's handler times, the telemetry
// counters and a CPU profile of the whole process.
func replay(w workload, o options, seq *sequence, n int, chk *checker, trace bool) (*traced, error) {
	dir, err := cacheDir(w, o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := startInProcess(w, dir, trace)
	if err != nil {
		return nil, err
	}
	defer p.close()
	c := newClient(p.http.URL)
	defer c.close()
	if failed, _ := prepare(c, w, o.seed, chk); failed > 0 {
		return nil, fmt.Errorf("replay set-up: %d requests failed", failed)
	}
	if !trace {
		return &traced{phase: timed(c, seq, chk, func(i int) bool { return i < n }, nil)}, nil
	}

	t := &traced{spans: make([]spans, n), bytes: make([]float64, n), calls: make([][3]interval, n)}
	t.before = p.metrics.Snapshot()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t.phase = timed(c, seq, chk, func(i int) bool { return i < n }, func(i int, cl call) {
		// The tracer keeps only the newest 64 traces: read this one now.
		if root, ok := p.metrics.TraceTree(cl.id); ok {
			t.spans[i] = readSpans(root)
		}
		t.bytes[i] = float64(len(cl.body))
		t.calls[i] = cl.calls
	})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&mem)
	t.alloc = mem.TotalAlloc - alloc0
	t.after = p.metrics.Snapshot()
	p.close() // waits for the handlers, so every handler time is recorded
	t.handlers = make([][3]interval, n)
	for i := range t.handlers {
		if h := p.timing.byTag[tagOf(i)]; h != nil {
			t.handlers[i] = *h
		}
	}
	if t.profile, err = parseCPUProfile(prof.Bytes()); err != nil {
		return nil, err
	}
	return t, nil
}

// layerMetrics turns the traced replay t, and the untraced replay u of the
// same requests, into the per-layer metrics, and writes a per-layer CPU
// and self-time table to log.
func layerMetrics(u phase, t *traced, log io.Writer) map[string]metric {
	n := float64(t.n)
	delta := func(f func(ones.MetricsSnapshot) uint64) float64 { return float64(f(t.after) - f(t.before)) }
	cells := delta(func(s ones.MetricsSnapshot) uint64 { return s.CacheComputes })
	memHits := delta(func(s ones.MetricsSnapshot) uint64 { return s.CacheMemoryHits })
	diskHits := delta(func(s ones.MetricsSnapshot) uint64 { return s.CacheDiskHits })
	evoHits := delta(func(s ones.MetricsSnapshot) uint64 { return s.MemoHits })
	evoMisses := delta(func(s ones.MetricsSnapshot) uint64 { return s.MemoMisses })
	lookups := cells + memHits + diskHits

	cpu := map[string]float64{} // layer → CPU ms
	var total, gc, jsonMS, randMS float64
	for _, s := range t.profile {
		v := float64(s.ns) / 1e6
		total += v
		cpu[attribute(s.stack)] += v
		for _, fn := range s.stack {
			if isGC(fn) {
				gc += v
				break
			}
		}
		if calls(s.stack, "encoding/json.") {
			jsonMS += v
		}
		if calls(s.stack, "math/rand.") {
			randMS += v
		}
	}
	daemonCPU := total - cpu[layerBench]

	// Self times partition each request's timeline. The run starts as
	// its POST handler answers (only the small status view is written
	// after it) and lasts as long as its span tree says; inside it the
	// span tree splits time into run, cell and stage self times. Outside
	// it, handler time is serve's, the rest of the HTTP calls is
	// transport, and what is left is the client between calls.
	var create, result, transport, serveSelf, clientGap, runSelf, cell, cellSelf, queued, traceGen, simulate, lat, intervals []float64
	dropped := 0
	for i, s := range t.spans {
		h, c := t.handlers[i], t.calls[i]
		run := interval{h[callCreate].to, h[callCreate].to.Add(time.Duration(s.run * 1e6))}
		whole := []interval{{c[callCreate].from, c[callResult].to}}
		create = append(create, ms(h[callCreate].to.Sub(h[callCreate].from)))
		result = append(result, ms(h[callResult].to.Sub(h[callResult].from)))
		serveSelf = append(serveSelf, ms(covered(h[:], []interval{run})))
		transport = append(transport, ms(covered(c[:], append(h[:], run))))
		clientGap = append(clientGap, ms(covered(whole, append(c[:], run))))
		runSelf = append(runSelf, s.run-s.cell)
		cell = append(cell, s.cell)
		cellSelf = append(cellSelf, s.cell-s.queued-s.traceGen-s.simulate)
		queued = append(queued, s.queued)
		traceGen = append(traceGen, s.traceGen)
		simulate = append(simulate, s.simulate)
		lat = append(lat, ms(c[callResult].to.Sub(c[callCreate].from)))
		intervals = append(intervals, s.intervals...)
		dropped += s.dropped
	}
	selfSum := mean(transport) + mean(serveSelf) + mean(runSelf) + mean(cellSelf) + mean(queued) + mean(traceGen) + mean(simulate)
	cpuPerCell := func(layer string) float64 { return ratio(cpu[layer], cells) }
	cpuPerReq := func(layer string) float64 { return ratio(cpu[layer], n) }
	m := map[string]metric{
		"http.transport_ms":                  {mean(transport), "ms"},
		"serve.create_ms":                    {median(create), "ms"},
		"serve.result_ms":                    {median(result), "ms"},
		"serve.result_bytes":                 {mean(t.bytes), "bytes"},
		"serve.self_ms":                      {mean(serveSelf), "ms"},
		"serve.cpu_ms_per_req":               {cpuPerReq("serve"), "ms"},
		"ones.run_self_ms":                   {mean(runSelf), "ms"},
		"ones.cpu_ms_per_req":                {cpuPerReq("ones"), "ms"},
		"servecache.memory_hit_ratio":        {ratio(memHits, lookups), "ratio"},
		"servecache.disk_hit_ratio":          {ratio(diskHits, lookups), "ratio"},
		"servecache.computes_per_req":        {cells / n, "count"},
		"servecache.cpu_ms_per_req":          {cpuPerReq("servecache"), "ms"},
		"engine.queued_ms":                   {mean(queued), "ms"},
		"engine.cell_ms":                     {mean(cell), "ms"},
		"engine.cell_self_ms":                {mean(cellSelf), "ms"},
		"engine.cpu_ms_per_req":              {cpuPerReq("engine"), "ms"},
		"workload.trace_gen_ms":              {mean(traceGen), "ms"},
		"simulator.simulate_ms":              {mean(simulate), "ms"},
		"simulator.cpu_ms_per_cell":          {cpuPerCell("simulator"), "ms"},
		"schedulers.cpu_ms_per_cell":         {cpuPerCell("schedulers"), "ms"},
		"schedulers.ones_decisions_per_cell": {ratio(delta(func(s ones.MetricsSnapshot) uint64 { return s.Decisions }), cells), "count"},
		"evolution.cpu_ms_per_cell":          {cpuPerCell("evolution"), "ms"},
		"evolution.cpu_share":                {ratio(cpu["evolution"], daemonCPU), "ratio"},
		"evolution.interval_ms":              {mean(intervals), "ms"},
		"evolution.dropped_spans_per_cell":   {ratio(float64(dropped), cells), "count"},
		"evolution.candidates_per_cell":      {ratio(delta(func(s ones.MetricsSnapshot) uint64 { return s.Candidates }), cells), "count"},
		"evolution.memo_hit_ratio":           {ratio(evoHits, evoHits+evoMisses), "ratio"},
		"predictor.cpu_ms_per_cell":          {cpuPerCell("predictor"), "ms"},
		"predictor.cpu_share":                {ratio(cpu["predictor"], daemonCPU), "ratio"},
		"perfmodel.cpu_ms_per_cell":          {cpuPerCell("perfmodel"), "ms"},
		"cluster.cpu_ms_per_cell":            {cpuPerCell("cluster"), "ms"},
		"runtime.gc_cpu_share":               {ratio(gc, total), "ratio"},
		"runtime.alloc_mb_per_req":           {float64(t.alloc) / 1e6 / n, "MB"},
		"stdlib.json_cpu_ms_per_req":         {jsonMS / n, "ms"},
		"stdlib.rand_cpu_ms_per_cell":        {ratio(randMS, cells), "ms"},
		"bench.latency_ms":                   {mean(lat), "ms"},
		"bench.client_gap_ms":                {mean(clientGap), "ms"},
		"bench.self_time_closure":            {ratio(selfSum, mean(lat)), "ratio"},
		"bench.trace_overhead_pct":           {100 * (ratio(u.rate(), t.rate()) - 1), "%"},
		"bench.unattributed_cpu_share":       {ratio(cpu[layerUnattributed], total), "ratio"},
		"bench.client_cpu_share":             {ratio(cpu[layerBench], total), "ratio"},
	}

	fmt.Fprintf(log, "traced replay: %d requests, %d cells computed, %.0f ms CPU profiled\n", t.n, int(cells), total)
	fmt.Fprintf(log, "%-16s %10s %8s\n", "layer", "cpu_ms", "share")
	layers := make([]string, 0, len(cpu))
	for l := range cpu {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return cpu[layers[i]] > cpu[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(log, "%-16s %10.0f %8.3f\n", l, cpu[l], cpu[l]/total)
	}
	fmt.Fprintf(log, "self time per request (ms): http %.3f, serve %.3f, ones %.3f, engine %.3f, queued %.3f, trace-gen %.3f, simulate %.3f; sum %.3f of latency %.3f (client between calls %.3f)\n",
		mean(transport), mean(serveSelf), mean(runSelf), mean(cellSelf), mean(queued), mean(traceGen), mean(simulate), selfSum, mean(lat), mean(clientGap))
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
