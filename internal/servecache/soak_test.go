package servecache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simulator"
)

// dirBytes sums the persisted record files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".cell" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// carriesBytes reports whether key's record exists and carries attached
// bytes.
func carriesBytes(t *testing.T, c *Cache, key string) bool {
	t.Helper()
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return false
	}
	_, attached, err := decodeCell(data, key)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	return attached != nil
}

// TestEvictionSoak drives a bounded cache through a seeded-random
// sequence of inserts, hits, attachments, Resets and limit changes,
// holding two invariants after every operation:
//
//   - the in-memory memo never exceeds MaxEntries (every entry here is
//     completed, so the cap is exact);
//   - the disk directory never exceeds MaxDiskBytes, though an
//     attachment rewrites a record several times its first size (Do
//     sweeps after each insert, Attached after each rewrite, SetLimits
//     at once).
//
// Afterwards it pins the determinism contract across the churn: a key
// that survived on disk reloads byte-identical in a fresh cache with the
// compute forbidden, with the bytes its record carries and no build,
// and an in-flight entry is never evicted however many inserts press on
// the cap.
func TestEvictionSoak(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, dir)

	res := simulate(t, "fifo", false)
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// Size the records so the byte cap holds a few of them.
	plain := int64(len(encodeCell("soak-key-000", res, nil)))
	attached := int64(len(encodeCell("soak-key-000", res, blob)))
	if attached < 2*plain {
		t.Fatalf("a record with bytes takes %d bytes, %d without: the rewrites would barely grow it", attached, plain)
	}

	limits := Limits{
		MaxEntries:   8,
		MaxDiskBytes: 3*attached + plain/2,
	}
	c.SetLimits(limits)

	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	keys := func(i int) string { return fmt.Sprintf("soak-key-%03d", i) }
	compute := func() (*simulator.Result, error) { return res, nil }
	// held maps each key to the result Do last returned for it, which its
	// entry may since have dropped.
	held := map[string]*simulator.Result{}
	rewrites := 0 // attachments after which the key's record carries bytes
	for step := 0; step < 600; step++ {
		key := keys(rng.Intn(40)) // a key from the working set
		switch op := rng.Intn(100); {
		case op < 55: // insert or hit
			got, err := c.Do(ctx, key, compute)
			if err != nil {
				t.Fatalf("step %d: Do(%s): %v", step, key, err)
			}
			held[key] = got
		case op < 90: // attach, to a live entry or a dropped one
			if r, ok := held[key]; ok {
				if b := c.Attached(key, r, func() []byte { return blob }); !bytes.Equal(b, blob) {
					t.Fatalf("step %d: Attached(%s) = %d bytes, want the blob", step, key, len(b))
				}
				if carriesBytes(t, c, key) {
					rewrites++
				}
			}
		case op < 95:
			c.Reset()
		default:
			limits = Limits{
				MaxEntries:   4 + rng.Intn(9),
				MaxDiskBytes: int64(1+rng.Intn(4))*attached + plain/2,
			}
			c.SetLimits(limits)
		}
		if n := c.Stats().Entries; n > limits.MaxEntries {
			t.Fatalf("step %d: memo holds %d entries, cap %d", step, n, limits.MaxEntries)
		}
		if b := dirBytes(t, dir); b > limits.MaxDiskBytes {
			t.Fatalf("step %d: disk holds %d bytes, cap %d", step, b, limits.MaxDiskBytes)
		}
	}
	st := c.Stats()
	if st.MemoEvictions == 0 || st.DiskEvictions == 0 || rewrites == 0 {
		t.Fatalf("soak never exercised eviction or a rewrite: %d rewrites, stats %+v", rewrites, st)
	}
	t.Logf("%d rewrites; stats %+v", rewrites, st)

	// Determinism across the churn: any key still persisted reloads
	// byte-identical in a fresh cache without computing, and one whose
	// record carries bytes reloads with them. The last key inserted and
	// attached is sure to be among them.
	last := keys(40)
	lastRes, err := c.Do(ctx, last, compute)
	if err != nil {
		t.Fatal(err)
	}
	c.Attached(last, lastRes, func() []byte { return blob })
	c2 := mustCache(t, dir)
	survivors, withBytes := 0, 0
	for i := 0; i <= 40; i++ {
		key := keys(i)
		if _, err := os.Stat(c.path(key)); err != nil {
			continue
		}
		survivors++
		got, err := c2.Do(ctx, key, func() (*simulator.Result, error) {
			t.Fatalf("warm restart recomputed %s instead of loading it", key)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, blob) {
			t.Errorf("warm-restart result of %s not byte-identical to the computed one", key)
		}
		if b := c2.Attached(key, got, func() []byte { return nil }); b != nil {
			withBytes++
			if !bytes.Equal(b, blob) {
				t.Errorf("%s reloaded with %d attached bytes, want the blob", key, len(b))
			}
		}
	}
	if survivors == 0 || withBytes == 0 {
		t.Fatalf("%d persisted keys survived the soak, %d with bytes; want some of each", survivors, withBytes)
	}

	// In-flight entries are never evicted: park a compute mid-flight,
	// press the cap with 2 × MaxEntries inserts of other keys, and the
	// waiter must still resolve from THAT computation (a second caller
	// dedups onto it, not a recompute).
	started := make(chan struct{})
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "inflight", func() (*simulator.Result, error) {
			close(started)
			<-release
			return res, nil
		})
		first <- err
	}()
	<-started
	for i := 0; i < 2*limits.MaxEntries; i++ {
		if _, err := c.Do(ctx, fmt.Sprintf("press-%02d", i), compute); err != nil {
			t.Fatal(err)
		}
	}
	second := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "inflight", func() (*simulator.Result, error) {
			return nil, fmt.Errorf("in-flight entry was evicted: dedup lost")
		})
		second <- err
	}()
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}
