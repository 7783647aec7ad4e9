package servecache

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/simulator"
)

// reseal rewrites rec's trailing checksum to match the bytes before it.
func reseal(rec []byte) []byte {
	body := rec[:len(rec)-4]
	binary.LittleEndian.PutUint32(rec[len(body):], crc32.Checksum(body, castagnoli))
	return rec
}

// fillDistinct sets every field under v to a distinct non-zero value,
// gives every slice two elements, and fails on a kind it cannot fill.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
		return
	}
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(n) * int64(1-2*(n%2))) // odd values negative
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.1)
	case reflect.String:
		v.SetString(fmt.Sprintf("field-%d", n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("cannot fill a %s field: give the record codec and this test a case for it", v.Type())
	}
}

// TestCodecCoversEveryField round-trips a Result whose every field,
// JobMetric's and Event's included, holds a distinct non-zero value, so
// a field added to the Result tree without codec support fails here.
// Nil and empty slices must stay distinct as well, attached bytes
// included.
func TestCodecCoversEveryField(t *testing.T) {
	full := &simulator.Result{}
	next := 0
	fillDistinct(t, reflect.ValueOf(full).Elem(), &next)
	for _, res := range []*simulator.Result{
		full,
		{},
		{Jobs: []simulator.JobMetric{}},
		{Events: []simulator.Event{}},
	} {
		for _, attached := range [][]byte{nil, {}, []byte(`{"mean_jct_s":1.5}`)} {
			got, gotAttached, err := decodeCell(encodeCell("k", res, attached), "k")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, res) {
				t.Errorf("round trip changed the result:\n got  %+v\n want %+v", got, res)
			}
			if !reflect.DeepEqual(gotAttached, attached) {
				t.Errorf("round trip changed the attached bytes: got %#v, want %#v", gotAttached, attached)
			}
		}
	}
}

// TestDecodeSharesEventKinds: a decoded event log costs one allocation,
// its slice; each event's kind is the simulator's constant, not a new
// string.
func TestDecodeSharesEventKinds(t *testing.T) {
	withLog := simulate(t, "fifo", true)
	if len(withLog.Events) == 0 {
		t.Fatal("the run recorded no events")
	}
	noLog := *withLog
	noLog.Events = nil
	allocs := func(res *simulator.Result) float64 {
		rec := encodeCell("k", res, nil)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := decodeCell(rec, "k"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if with, without := allocs(withLog), allocs(&noLog); with > without+1 {
		t.Errorf("decoding %d events allocated %v objects, %v without the log; want at most one more", len(withLog.Events), with, without)
	}
}

// TestDecodeSharesTaskNames: decoding a default-scale cell's record
// allocates no string per job, since every job is named after a
// workload.Catalog task, and nothing for its attached bytes, which are
// a slice of the record. What is left is the Result, its job slice and
// the scheduler name.
func TestDecodeSharesTaskNames(t *testing.T) {
	res := tiresiasResult(t, false)
	if len(res.Jobs) != 120 {
		t.Fatalf("the default cell has %d jobs, want 120", len(res.Jobs))
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, attached := range [][]byte{nil, blob} {
		rec := encodeCell("k", res, attached)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := decodeCell(rec, "k"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("decoding %d jobs and %d attached bytes allocated %v objects, want at most 3", len(res.Jobs), len(attached), allocs)
		}
	}
	// A name outside the catalog still round-trips, as its own copy.
	res.Jobs[0].Name = "custom-task"
	got, _, err := decodeCell(encodeCell("k", res, nil), "k")
	if err != nil || got.Jobs[0].Name != "custom-task" {
		t.Fatalf("decoded name %q (%v), want custom-task", got.Jobs[0].Name, err)
	}
}

// checkDecode decodes data as load does and holds FuzzDecodeCell's
// invariants, each decided by the input alone (no reading of the
// process's memory counters, which other goroutines move): no panic; an
// accepted record keeps at most a small multiple of its size in memory
// (its attached bytes are a slice of the input) and re-encodes to one
// that decodes to the same Result and attached bytes; and each of its
// counts, forged past what the bytes left can hold, is refused as a
// count before anything is allocated from it (see checkForgedCounts).
func checkDecode(t *testing.T, data []byte) {
	k, _, _ := openCell(data)
	key := string(k)
	res, attached, err := decodeCell(data, key)
	if err != nil {
		return
	}
	// A decoded job or event takes at most 4.5 times its least encoding
	// in memory; the constant covers the Result itself.
	if n := footprint(res); n > 8*len(data)+4096 {
		t.Fatalf("decoding %d bytes kept %d", len(data), n)
	}
	rec := encodeCell(key, res, attached)
	again, againAttached, err := decodeCell(rec, key)
	if err != nil {
		t.Fatalf("re-encoded record rejected: %v", err)
	}
	// Equal re-encodings mean reflect.DeepEqual results with every float
	// compared by its bits, which also holds for a NaN the fuzzer writes,
	// and equal attached bytes, nil kept apart from empty.
	if !bytes.Equal(encodeCell(key, again, againAttached), rec) {
		t.Fatalf("round trip changed the record:\n first  %+v, attached %q\n second %+v, attached %q", res, attached, again, againAttached)
	}
	checkForgedCounts(t, key, res)
}

// footprint is the memory a decoded Result holds: the struct, its
// slices' backing arrays and every string's bytes (counted even where
// the decoder shares a catalog name or an event kind).
func footprint(res *simulator.Result) int {
	n := int(unsafe.Sizeof(*res)) + len(res.Scheduler)
	n += cap(res.Jobs) * int(unsafe.Sizeof(simulator.JobMetric{}))
	for _, j := range res.Jobs {
		n += len(j.Name)
	}
	n += cap(res.Events) * int(unsafe.Sizeof(simulator.Event{}))
	for _, e := range res.Events {
		n += len(e.Kind)
	}
	return n
}

// checkForgedCounts rewrites each count of res's record in turn (the
// jobs, the events and the attached bytes), with its slice emptied, to
// two counts the bytes left cannot hold: the least whose slice alone
// would break checkDecode's bound, and one no allocation can hold. The
// decoder must refuse both as counts. One that sized a slice from the
// first would fail later with another error, and one that sized a slice
// from the second, even to refuse it after, would panic.
func checkForgedCounts(t *testing.T, key string, res *simulator.Result) {
	noJobs, noEvents := *res, *res
	noJobs.Jobs, noEvents.Events = nil, nil
	emptyJobs, emptyEvents := noJobs, noEvents
	emptyJobs.Jobs, emptyEvents.Events = []simulator.JobMetric{}, []simulator.Event{}
	for _, c := range []struct {
		none, empty []byte // records with the slice nil and empty
		elem        int
	}{
		{encodeCell(key, &noJobs, nil), encodeCell(key, &emptyJobs, nil), int(unsafe.Sizeof(simulator.JobMetric{}))},
		{encodeCell(key, &noEvents, nil), encodeCell(key, &emptyEvents, nil), int(unsafe.Sizeof(simulator.Event{}))},
		{encodeCell(key, res, nil), encodeCell(key, res, []byte{}), 1},
	} {
		// The two records differ first at the count: 0 for nil, 1 for
		// empty.
		rec, none := c.empty, c.none
		at := 0
		for rec[at] == none[at] {
			at++
		}
		least := uint64((8*(len(rec)+binary.MaxVarintLen64)+4096)/c.elem + 1)
		for _, n := range []uint64{least, 1 << 62} {
			forged := binary.AppendUvarint(bytes.Clone(rec[:at]), n+1)
			forged = reseal(append(forged, rec[at+1:]...))
			if _, _, err := decodeCell(forged, key); err == nil || !strings.HasPrefix(err.Error(), "count ") {
				t.Fatalf("a count forged to %d was not refused as a count (%v)", n, err)
			}
		}
	}
}

// FuzzDecodeCell feeds the record decoder arbitrary bytes. Each input is
// also tried with its checksum resealed: a mutated record almost never
// passes the checksum, and resealing lets the fuzzer reach the payload
// decoder behind it. The seeds carry no attached bytes, empty ones and a
// small Result's JSON, as onesd attaches it (the decoder never parses
// the bytes, and a short seed keeps the fuzzer fast).
func FuzzDecodeCell(f *testing.F) {
	fifo := simulate(f, "fifo", false)
	blob, err := json.Marshal(fifo)
	if err != nil {
		f.Fatal(err)
	}
	for _, res := range []*simulator.Result{
		fifo,
		simulate(f, "ones", true),
		{Jobs: []simulator.JobMetric{}},
	} {
		for _, attached := range [][]byte{nil, {}, blob} {
			rec := encodeCell("cell|seed=1", res, attached)
			for _, n := range []int{len(rec), len(rec) - 1, len(rec) / 2, len(magic) + 4, 3} {
				f.Add(rec[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= 4 {
			checkDecode(t, reseal(bytes.Clone(data)))
		}
	})
}

// TestCorruptionNeverServed damages a real persisted record, one that
// carries attached bytes, in every part: truncations at sampled lengths,
// and one flipped bit at sampled offsets of the magic, version, key,
// result, attached bytes and checksum. Each damaged file must be
// discarded and the cell recomputed, never served, and its bytes never
// attached.
func TestCorruptionNeverServed(t *testing.T) {
	const key = "cell"
	dir := t.TempDir()
	res := simulate(t, "ones", true)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCache(t, dir)
	ctx := context.Background()
	if _, err := c.Do(ctx, key, func() (*simulator.Result, error) { return res, nil }); err != nil {
		t.Fatal(err)
	}
	c.Attached(key, res, func() []byte { return blob })
	path := c.path(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	versionAt := len(magic)
	keyAt := versionAt + 1
	payloadAt := keyAt + 1 + len(key)
	crcAt := len(good) - 4
	attachedPart := append(binary.AppendUvarint(nil, uint64(len(blob))+1), blob...)
	attachedAt := crcAt - len(attachedPart)
	if !bytes.Equal(good[attachedAt:crcAt], attachedPart) {
		t.Fatal("the rewritten record does not end with its attached bytes")
	}
	type damage struct {
		name string
		data []byte
	}
	var cases []damage
	for _, n := range []int{0, 1, versionAt, keyAt, payloadAt, payloadAt + 1, attachedAt / 2,
		attachedAt, attachedAt + 1, (attachedAt + crcAt) / 2, crcAt, len(good) - 1} {
		cases = append(cases, damage{fmt.Sprintf("truncated to %d bytes", n), good[:n]})
	}
	for _, part := range []struct {
		name     string
		from, to int
	}{
		{"magic", 0, versionAt},
		{"version", versionAt, keyAt},
		{"key", keyAt, payloadAt},
		{"result", payloadAt, attachedAt},
		{"attached", attachedAt, crcAt},
		{"checksum", crcAt, len(good)},
	} {
		step := max(1, (part.to-part.from)/24)
		for off := part.from; off < part.to; off += step {
			flipped := bytes.Clone(good)
			flipped[off] ^= 1 << (off % 8)
			cases = append(cases, damage{fmt.Sprintf("%s bit flipped at byte %d", part.name, off), flipped})
		}
	}

	for _, tc := range cases {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		c.Reset()
		discards := c.Stats().Discards
		recomputed := false
		got, err := c.Do(ctx, key, func() (*simulator.Result, error) {
			recomputed = true
			return res, nil
		})
		if err != nil || got != res || !recomputed {
			t.Errorf("%s: served (%t recomputed, err %v)", tc.name, recomputed, err)
		}
		if d := c.Stats().Discards - discards; d != 1 {
			t.Errorf("%s: %d discards, want 1", tc.name, d)
		}
		if b := c.Attached(key, got, func() []byte { return []byte("built") }); string(b) != "built" {
			t.Errorf("%s: the recomputed entry came with attached bytes", tc.name)
		}
	}
	if len(cases) < 60 {
		t.Fatalf("only %d damaged records tried", len(cases))
	}
	t.Logf("%d damaged records of a %d-byte record, all discarded", len(cases), len(good))
}
