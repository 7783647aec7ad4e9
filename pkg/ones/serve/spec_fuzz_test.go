package serve

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"repro/pkg/ones"
)

// FuzzRunSpec feeds the POST /v1/runs body decoder arbitrary bytes. No
// body may panic it; a spec it accepts must re-encode to JSON that
// decodes to the same spec; and ones.New on the spec's options must
// return a session or an error, without panicking or starting a run: no
// progress event reaches the run's observer and the cache sees no
// lookup. The corpus starts from the specs and bodies the serve tests
// post.
func FuzzRunSpec(f *testing.F) {
	specs := []RunSpec{
		quickSpec(), slowSpec(), reactiveSpec(),
		{Scheduler: "ones", Jobs: 6, Interarrival: 25, Seed: 4, Quick: true},
		{Scheduler: "bogus"}, {Scenario: "bogus"}, {Autoscaler: "bogus"},
		{Shape: "zzz", Quick: true}, {Shape: "2000000000x8"}, {Servers: 2_000_000_000},
		{Scheduler: "fifo", Jobs: 1 << 30}, {Scheduler: "ones", Population: 100_000_000},
	}
	for _, sp := range sharedSpecs() {
		specs = append(specs, sp)
	}
	for _, sp := range specs {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for body := range createBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeRunSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		if back, err := decodeRunSpec(bytes.NewReader(again)); err != nil || back != spec {
			t.Fatalf("spec %+v re-encoded as %s decodes to %+v (%v)", spec, again, back, err)
		}
		cache, err := ones.NewCache("", nil)
		if err != nil {
			t.Fatal(err)
		}
		var events atomic.Int64
		sess, err := ones.New(spec.options(ones.ObserverFunc(func(ones.Progress) { events.Add(1) }), cache)...)
		if (sess == nil) == (err == nil) {
			t.Fatalf("New(%+v) returned session %v and error %v, want exactly one", spec, sess != nil, err)
		}
		if n := events.Load(); n != 0 || cache.Stats() != (ones.CacheStats{}) {
			t.Fatalf("New(%+v) started a run: %d progress events, cache stats %+v", spec, n, cache.Stats())
		}
	})
}
