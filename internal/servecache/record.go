package servecache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/cluster"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// magic opens every cell record (see the package doc for the layout).
const magic = "ONESCELL"

// The least bytes one slice element can encode to. A count is checked
// against the bytes left before anything is allocated for it, so a
// record can never make the decoder allocate more than a small multiple
// of its own size.
const (
	minJobBytes   = 1 + 1 + 6*8       // ID, Name's length, six float64s
	minEventBytes = 8 + 1 + 1 + 1 + 1 // Time, Kind's length, Job, GPUs, Batch
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeCell returns the record that persists res under key, with the
// bytes attached to its memo entry (nil for none; see Cache.Attached).
func encodeCell(key string, res *simulator.Result, attached []byte) []byte {
	b := make([]byte, 0, 128+len(key)+64*len(res.Jobs)+24*len(res.Events)+len(attached))
	b = append(b, magic...)
	b = binary.AppendUvarint(b, Version)
	b = appendString(b, key)
	b = appendString(b, res.Scheduler)
	b = appendCount(b, res.Jobs)
	for _, j := range res.Jobs {
		b = binary.AppendVarint(b, int64(j.ID))
		b = appendString(b, j.Name)
		b = appendFloats(b, j.Submit, j.Start, j.Done, j.JCT, j.Exec, j.Queue)
	}
	b = appendFloats(b, res.Makespan)
	if res.Truncated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendInts(b, res.Unfinished, res.Reconfigs, res.Evictions, res.RackDrainEvictions,
		res.CapacityEvents, res.ScaleUps, res.ScaleDowns, res.AutoscaleEvents)
	b = appendFloats(b, res.BusyGPUSeconds)
	b = appendInts(b, res.TotalGPUs)
	b = appendFloats(b, res.CapacityGPUSeconds)
	b = appendCount(b, res.Events)
	for _, e := range res.Events {
		b = appendFloats(b, e.Time)
		b = appendString(b, string(e.Kind))
		b = appendInts(b, int(e.Job), e.GPUs, e.Batch)
	}
	b = append(appendCount(b, attached), attached...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendCount writes a slice's length n as n+1, keeping 0 for nil:
// reflect.DeepEqual tells a nil slice from an empty one.
func appendCount[E any](b []byte, s []E) []byte {
	if s == nil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(len(s))+1)
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// appendFloats writes each value's IEEE 754 bits, so a decoded float is
// the stored one bit for bit.
func appendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// openCell checks a record's magic, checksum and format version, and
// returns the key it was stored under and the payload that follows.
func openCell(data []byte) (key, payload []byte, err error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, nil, errors.New("not a cell record")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	r := reader{b: body[len(magic):]}
	if v := r.uvarint(); r.err == nil && v != Version {
		return nil, nil, fmt.Errorf("format version %d, want %d", v, Version)
	}
	key = r.raw()
	return key, r.b, r.err
}

// decodeCell returns the Result a record stores for key and the bytes
// it persisted beside it (nil for none). The bytes are a capacity-capped
// slice of data, not a copy. Any defect, from a flipped bit to a count
// the bytes left cannot hold, is an error; the decoded Result is never
// partial.
func decodeCell(data []byte, key string) (*simulator.Result, []byte, error) {
	k, payload, err := openCell(data)
	if err != nil {
		return nil, nil, err
	}
	if string(k) != key {
		return nil, nil, fmt.Errorf("key mismatch (%.60q...)", k)
	}
	r := reader{b: payload}
	res := &simulator.Result{Scheduler: r.str()}
	if n, ok := r.count(minJobBytes); ok {
		res.Jobs = make([]simulator.JobMetric, n)
		for i := range res.Jobs {
			j := &res.Jobs[i]
			j.ID = cluster.JobID(r.int())
			j.Name = r.taskName()
			j.Submit = r.float()
			j.Start = r.float()
			j.Done = r.float()
			j.JCT = r.float()
			j.Exec = r.float()
			j.Queue = r.float()
		}
	}
	res.Makespan = r.float()
	res.Truncated = r.bool()
	res.Unfinished = r.int()
	res.Reconfigs = r.int()
	res.Evictions = r.int()
	res.RackDrainEvictions = r.int()
	res.CapacityEvents = r.int()
	res.ScaleUps = r.int()
	res.ScaleDowns = r.int()
	res.AutoscaleEvents = r.int()
	res.BusyGPUSeconds = r.float()
	res.TotalGPUs = r.int()
	res.CapacityGPUSeconds = r.float()
	if n, ok := r.count(minEventBytes); ok {
		res.Events = make([]simulator.Event, n)
		for i := range res.Events {
			e := &res.Events[i]
			e.Time = r.float()
			e.Kind = r.kind()
			e.Job = cluster.JobID(r.int())
			e.GPUs = r.int()
			e.Batch = r.int()
		}
	}
	var attached []byte
	if n, ok := r.count(1); ok {
		attached = r.b[:n:n]
		r.b = r.b[n:]
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the attached bytes", len(r.b))
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return res, attached, nil
}

// reader decodes a record front to back. Every read first checks that
// the bytes it needs are there; the first failure is kept in err, and
// every read after it returns a zero value.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// raw reads a length-prefixed byte string without copying it.
func (r *reader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("length %d exceeds the %d bytes left", n, len(r.b))
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *reader) str() string { return string(r.raw()) }

// taskNames maps each workload.Catalog task name to itself: every job of
// a generated trace is named after its task.
var taskNames = func() map[string]string {
	cat := workload.Catalog()
	m := make(map[string]string, len(cat))
	for _, t := range cat {
		m[t.Name] = t.Name
	}
	return m
}()

// taskName reads a job name. A catalog task name comes back as the
// catalog's own string, so a decoded job allocates no name (indexing
// with string(b) builds none); any other name is copied.
func (r *reader) taskName() string {
	b := r.raw()
	if name, ok := taskNames[string(b)]; ok {
		return name
	}
	return string(b)
}

// eventKinds are the kinds the simulator logs.
var eventKinds = [...]simulator.EventKind{
	simulator.EventArrive, simulator.EventStart, simulator.EventRescale, simulator.EventPreempt,
	simulator.EventComplete, simulator.EventEvict, simulator.EventCapacity,
}

// kind reads an event kind. One of eventKinds comes back as the constant
// itself, so a decoded log allocates no string per event (comparing
// string(b) builds none); any other kind is copied.
func (r *reader) kind() simulator.EventKind {
	b := r.raw()
	for _, k := range eventKinds {
		if string(b) == string(k) {
			return k
		}
	}
	return simulator.EventKind(b)
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("bad bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// count reads a slice length written by appendCount. ok is false for a
// nil slice or after a failure; a count that the bytes left cannot hold
// at minBytes an element fails before the caller allocates.
func (r *reader) count(minBytes int) (n int, ok bool) {
	c := r.uvarint()
	if r.err != nil || c == 0 {
		return 0, false
	}
	if c-1 > uint64(len(r.b)/minBytes) {
		r.fail("count %d exceeds the %d bytes left", c-1, len(r.b))
		return 0, false
	}
	return int(c - 1), true
}
