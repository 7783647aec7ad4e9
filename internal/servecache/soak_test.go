package servecache

import (
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

// TestEvictionSoak drives a bounded cache through a seeded-random
// sequence of inserts and hits, holding two invariants after every
// operation:
//
//   - the in-memory memo never exceeds MaxEntries (every entry here is
//     completed, so the cap is exact);
//   - the disk directory never exceeds MaxDiskBytes (Do sweeps after
//     each insert).
//
// Afterwards it pins the determinism contract across the churn: a key
// that survived on disk reloads byte-identical in a fresh cache with the
// compute forbidden, and an in-flight entry is never evicted however many
// inserts press on the cap.
func TestEvictionSoak(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, dir)

	res := simulate(t, "fifo", false)
	// Size one record so the byte cap is a meaningful ~5 files.
	fileSize := int64(len(encodeCell("probe", res)))

	limits := Limits{
		MaxEntries:   8,
		MaxDiskBytes: 5*fileSize + fileSize/2,
	}
	c.SetLimits(limits)

	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	keys := func(i int) string { return fmt.Sprintf("soak-key-%03d", i) }
	compute := func() (*simulator.Result, error) { return res, nil }
	for step := 0; step < 400; step++ {
		key := keys(rng.Intn(40)) // insert or hit a key from the working set
		if _, err := c.Do(ctx, key, compute); err != nil {
			t.Fatalf("step %d: Do(%s): %v", step, key, err)
		}
		if n := c.Stats().Entries; n > limits.MaxEntries {
			t.Fatalf("step %d: memo holds %d entries, cap %d", step, n, limits.MaxEntries)
		}
		if b := dirBytes(t, dir); b > limits.MaxDiskBytes {
			t.Fatalf("step %d: disk holds %d bytes, cap %d", step, b, limits.MaxDiskBytes)
		}
	}
	st := c.Stats()
	if st.MemoEvictions == 0 || st.DiskEvictions == 0 {
		t.Fatalf("soak never exercised eviction: stats %+v", st)
	}

	// Determinism across the churn: any key still persisted reloads
	// byte-identical in a fresh cache without computing.
	survivor := ""
	for i := 0; i < 40; i++ {
		if _, err := os.Stat(c.path(keys(i))); err == nil {
			survivor = keys(i)
			break
		}
	}
	if survivor == "" {
		t.Fatal("no persisted key survived the soak (cap fits ~5 files)")
	}
	c2 := mustCache(t, dir)
	got, err := c2.Do(ctx, survivor, func() (*simulator.Result, error) {
		t.Fatalf("warm restart recomputed %s instead of loading it", survivor)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("warm-restart result not byte-identical to the computed one")
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
