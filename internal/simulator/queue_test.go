package simulator

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// refHeap is a container/heap reference implementation over the same
// ordering, standing in for the pre-flat-queue event heap.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func randomEvents(rng *rand.Rand, n int) []event {
	evs := make([]event, n)
	for i := range evs {
		evs[i] = event{
			// Coarse times force plenty of ties so the kind/job/seq
			// tiebreakers are exercised, not just t.
			t:    float64(rng.Intn(50)),
			kind: eventKind(rng.Intn(4)),
			job:  cluster.JobID(rng.Intn(30)),
			seq:  rng.Intn(10),
		}
	}
	return evs
}

// TestEventQueueMatchesReferenceHeap drives the flat 4-ary queue and a
// container/heap reference through identical interleaved push/pop
// workloads: every pop must match. The simulator's real event streams
// have a strict total order, so matching the reference on arbitrary
// (tie-heavy) streams is strictly stronger than what determinism needs.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		var q eventQueue
		var ref refHeap
		pending := randomEvents(rng, 200)
		pops := 0
		for len(pending) > 0 || ref.Len() > 0 {
			if len(pending) > 0 && (ref.Len() == 0 || rng.Intn(2) == 0) {
				e := pending[0]
				pending = pending[1:]
				q.push(e)
				heap.Push(&ref, e)
				continue
			}
			got := q.pop()
			want := heap.Pop(&ref).(event)
			if got != want {
				t.Fatalf("round %d pop %d: flat queue popped %+v, reference %+v", round, pops, got, want)
			}
			pops++
		}
		if q.len() != 0 {
			t.Fatalf("round %d: queue not drained: %d left", round, q.len())
		}
	}
}

// BenchmarkEventQueue measures a push-all/pop-all cycle at simulation
// scale. TestEventQueueAllocs pins its allocs/op at 0: the flat queue
// boxes nothing and the backing array is reused across iterations.
func BenchmarkEventQueue(b *testing.B) {
	cycle := queueBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// queueBench returns BenchmarkEventQueue's operation: push 4096 random
// events onto one reused queue, then pop them all.
func queueBench() func() {
	rng := rand.New(rand.NewSource(7))
	evs := randomEvents(rng, 4096)
	var q eventQueue
	return func() {
		for _, e := range evs {
			q.push(e)
		}
		for q.len() > 0 {
			q.pop()
		}
	}
}

// TestEventQueueAllocs pins a push-all/pop-all cycle at zero
// allocations once AllocsPerRun's warm-up call has grown the backing
// array. Allocation counts do not depend on the machine, so the bound
// is exact.
func TestEventQueueAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(20, queueBench()); got != 0 {
		t.Errorf("one push-all/pop-all cycle allocates %v times, want 0", got)
	}
}
