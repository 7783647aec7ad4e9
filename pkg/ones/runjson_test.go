package ones

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/simulator"
)

// TestRunJSONServesCachedCellsAsSharedJSON: a cell the call simulates
// comes back as the Result Run returns; a cache-served cell comes back
// as the JSON that Result marshals to, one slice for every session.
func TestRunJSONServesCachedCellsAsSharedJSON(t *testing.T) {
	ctx := context.Background()
	cache, err := NewCache("", nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := quickSession(t, WithCache(cache), WithEventLog(true))
	res, raw, err := sess.RunJSON(ctx)
	if err != nil || res == nil || raw != nil {
		t.Fatalf("computed cell: Result %v, JSON %q, err %v; want a Result only", res != nil, raw, err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	res, raw, err = sess.RunJSON(ctx)
	if err != nil || res != nil || !bytes.Equal(raw, want) {
		t.Fatalf("memory hit: Result %v, err %v, JSON equal %v; want the Result's JSON only", res != nil, err, bytes.Equal(raw, want))
	}
	_, again, err := quickSession(t, WithCache(cache), WithEventLog(true)).RunJSON(ctx)
	if err != nil || &again[0] != &raw[0] {
		t.Fatalf("a second session got its own bytes (err %v), want the entry's shared JSON", err)
	}
	if got, err := sess.Run(ctx); err != nil {
		t.Fatal(err)
	} else if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
		t.Error("Run of a cached cell no longer marshals to the computed Result's JSON")
	}
	if st := cache.Stats(); st.Computes != 1 || st.MemoryHits != 3 {
		t.Errorf("cache stats = %+v, want 1 compute and 3 memory hits", st)
	}
}

// TestRunJSONIsAFunctionOfTheKey: sessions whose cells share a CellKey
// share one cache entry and so one encoding, built by whichever session
// is served first, so each spelling of a key must marshal its Run to
// those same bytes. newResult reads only the session's resolved cell;
// this guards that it stays so.
func TestRunJSONIsAFunctionOfTheKey(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		a, b []Option
	}{
		{"default topology", nil, []Option{WithTopology(16, 4)}},
		{"default scenario", nil, []Option{WithScenario("steady")}},
		{"trace seed", []Option{WithSeed(5)}, []Option{WithSeed(5), WithTrace(Trace{Seed: 5})}},
		{"shape spelling", []Option{WithShape("2x4, 1x8")}, []Option{WithShape("2x4,1x8")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := NewCache("", nil)
			if err != nil {
				t.Fatal(err)
			}
			session := func(opts []Option) *Session {
				s, err := New(append([]Option{WithScheduler("fifo"), WithQuickScale(), WithCache(cache)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			a, b := session(tc.a), session(tc.b)
			var runs [][]byte
			for _, s := range []*Session{a, b} {
				res, err := s.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				out, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, out)
			}
			if st := cache.Stats(); st.Computes != 1 {
				t.Fatalf("the two spellings computed %d cells, want 1 shared entry", st.Computes)
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Fatalf("the two spellings' Run results marshal differently:\n%s\n%s", runs[0], runs[1])
			}
			for i, s := range []*Session{b, a} {
				_, raw, err := s.RunJSON(ctx)
				if err != nil || !bytes.Equal(raw, runs[0]) {
					t.Errorf("RunJSON %d served %q (err %v), want its Run's JSON", i, raw, err)
				}
			}
		})
	}
}

// TestNewResultSizesEventsOnce: converting an event log allocates its
// slice once, however long the log, and an empty log stays nil.
func TestNewResultSizesEventsOnce(t *testing.T) {
	sess := quickSession(t, WithEventLog(true))
	cell := sess.base
	res, err := sess.runner.Result(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) < 16 {
		t.Fatalf("the run logged %d events, want a longer log", len(res.Events))
	}
	noLog := *res
	noLog.Events = nil
	allocs := func(r *simulator.Result) float64 {
		return testing.AllocsPerRun(20, func() { newResult(cell, r) })
	}
	if with, without := allocs(res), allocs(&noLog); with > without+1 {
		t.Errorf("converting %d events allocated %v objects, %v without the log; want at most one more", len(res.Events), with, without)
	}
	noLog.Events = []simulator.Event{}
	if got := newResult(cell, &noLog).Events; got != nil {
		t.Errorf("an empty log converted to %#v, want nil", got)
	}
}
