package collective

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// runGroup launches fn on every rank of a fresh group and waits.
func runGroup(t *testing.T, n int, fn func(c *Comm)) {
	t.Helper()
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		c, err := g.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(0); err == nil {
		t.Error("zero-size group accepted")
	}
	g, err := NewGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Comm(3); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := g.Comm(-1); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestAllReduceSumCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for _, ln := range []int{1, 3, 8, 17, 1024} {
			if ln < n && n > 1 {
				// Chunks may be empty; still must work.
			}
			inputs := make([][]float32, n)
			want := make([]float32, ln)
			rng := rand.New(rand.NewSource(int64(n*1000 + ln)))
			for r := 0; r < n; r++ {
				inputs[r] = make([]float32, ln)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
					want[i] += inputs[r][i]
				}
			}
			var mu sync.Mutex
			results := make(map[int][]float32)
			runGroup(t, n, func(c *Comm) {
				buf := append([]float32(nil), inputs[c.Rank()]...)
				c.AllReduceSum(buf)
				mu.Lock()
				results[c.Rank()] = buf
				mu.Unlock()
			})
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Abs(float64(results[r][i]-want[i])) > 1e-3 {
						t.Fatalf("n=%d ln=%d rank %d elem %d: got %v want %v",
							n, ln, r, i, results[r][i], want[i])
					}
				}
			}
		}
	}
}

func TestAllReduceMean(t *testing.T) {
	const n = 4
	runGroup(t, n, func(c *Comm) {
		buf := []float32{float32(c.Rank()), 10}
		c.AllReduceMean(buf)
		if math.Abs(float64(buf[0]-1.5)) > 1e-6 { // mean of 0..3
			t.Errorf("rank %d mean[0] = %v, want 1.5", c.Rank(), buf[0])
		}
		if math.Abs(float64(buf[1]-10)) > 1e-6 {
			t.Errorf("rank %d mean[1] = %v, want 10", c.Rank(), buf[1])
		}
	})
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	const n = 5
	for root := 0; root < n; root++ {
		var mu sync.Mutex
		results := make(map[int][]float32)
		runGroup(t, n, func(c *Comm) {
			buf := make([]float32, 7)
			if c.Rank() == root {
				for i := range buf {
					buf[i] = float32(100*root + i)
				}
			}
			if err := c.Broadcast(buf, root); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			results[c.Rank()] = buf
			mu.Unlock()
		})
		for r := 0; r < n; r++ {
			for i := 0; i < 7; i++ {
				want := float32(100*root + i)
				if results[r][i] != want {
					t.Fatalf("root %d rank %d elem %d = %v, want %v", root, r, i, results[r][i], want)
				}
			}
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	g, _ := NewGroup(2)
	c, _ := g.Comm(0)
	if err := c.Broadcast([]float32{1}, 5); err == nil {
		t.Error("bad root accepted")
	}
}

func TestSingleRankOpsAreNoops(t *testing.T) {
	g, _ := NewGroup(1)
	c, _ := g.Comm(0)
	buf := []float32{1, 2, 3}
	c.AllReduceSum(buf)
	if buf[0] != 1 || buf[2] != 3 {
		t.Error("single-rank all-reduce changed data")
	}
	if err := c.Broadcast(buf, 0); err != nil {
		t.Error(err)
	}
	c.AllReduceSum([]float32{1})
}

func TestEmptyBufferAllReduce(t *testing.T) {
	runGroup(t, 3, func(c *Comm) {
		c.AllReduceSum(nil) // must not hang or panic
		c.AllReduceSum([]float32{1})
	})
}

func TestAllReduceSequenceOfOperations(t *testing.T) {
	// Repeated collectives on the same group must stay consistent (the
	// training loop does one per step).
	const n, ln, steps = 4, 33, 20
	var mu sync.Mutex
	finals := make(map[int]float32)
	runGroup(t, n, func(c *Comm) {
		buf := make([]float32, ln)
		for i := range buf {
			buf[i] = 1
		}
		for s := 0; s < steps; s++ {
			c.AllReduceMean(buf) // mean of equal values: unchanged
		}
		mu.Lock()
		finals[c.Rank()] = buf[ln-1]
		mu.Unlock()
	})
	for r, v := range finals {
		if math.Abs(float64(v-1)) > 1e-4 {
			t.Errorf("rank %d drifted to %v after %d collectives", r, v, steps)
		}
	}
}

func TestAllReducePropertyMatchesSerialSum(t *testing.T) {
	f := func(seed int64, rawN, rawLn uint8) bool {
		n := int(rawN)%6 + 1
		ln := int(rawLn)%64 + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float32, n)
		want := make([]float32, ln)
		for r := range inputs {
			inputs[r] = make([]float32, ln)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Intn(100))
				want[i] += inputs[r][i]
			}
		}
		g, err := NewGroup(n)
		if err != nil {
			return false
		}
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for r := 0; r < n; r++ {
			c, _ := g.Comm(r)
			buf := append([]float32(nil), inputs[r]...)
			wg.Add(1)
			go func(c *Comm, buf []float32) {
				defer wg.Done()
				c.AllReduceSum(buf)
				for i := range buf {
					if buf[i] != want[i] {
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
				}
			}(c, buf)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
