package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuSample is one CPU profile sample: the CPU time it stands for and its
// call stack as function names, innermost first (inlined calls expanded).
type cpuSample struct {
	ns    int64
	stack []string
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what layer attribution needs: each sample's CPU
// nanoseconds (its last value) and its stack's function names.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string table index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		cs := cpuSample{ns: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields, which profile.proto's fields here never use, are
// skipped.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := f(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: v when it was
// encoded on its own, or every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Buckets for samples with no frame of the repository's own code.
const (
	layerBench        = "bench" // the load generator: its own code and HTTP client
	layerGC           = "runtime.gc"
	layerSched        = "runtime.sched"
	layerUnattributed = "unattributed"
)

// attribute names the layer a sample's CPU time belongs to: the package
// of the innermost frame of the repository's code ("repro/internal/
// evolution" → "evolution", "repro/pkg/ones/serve" → "serve"), with the
// benchmark's own package main as "bench". Stacks without such a frame go
// to the HTTP server (serve) or client (bench) that runs them, or to the
// runtime's GC and scheduler buckets; the rest are unattributed.
func attribute(stack []string) string {
	for _, fn := range stack {
		pkg := pkgOf(fn)
		switch {
		case pkg == "main":
			return layerBench
		case strings.HasPrefix(pkg, "repro/"):
			return path.Base(pkg)
		}
	}
	for _, fn := range stack {
		switch {
		case isGC(fn):
			return layerGC
		case fn == "runtime.schedule" || fn == "runtime.findRunnable" || fn == "runtime.mstart":
			return layerSched
		case strings.HasPrefix(fn, "net/http.(*conn)."):
			return "serve"
		case strings.HasPrefix(fn, "net/http.(*persistConn)."), strings.HasPrefix(fn, "net/http.(*Transport)."),
			strings.HasPrefix(fn, "runtime/pprof."):
			return layerBench
		}
	}
	return layerUnattributed
}

// isGC reports whether fn is garbage-collector work: background marking,
// mark assists and sweeping.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// calls reports whether the sample's innermost frames, up to the first
// frame of the repository's code, include a function with the prefix: the
// standard-library work that code asked for directly.
func calls(stack []string, prefix string) bool {
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if pkg == "main" || strings.HasPrefix(pkg, "repro/") {
			return false
		}
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a function name as profiles print it,
// e.g. "repro/internal/evolution.(*Context).Score" → "repro/internal/evolution".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
