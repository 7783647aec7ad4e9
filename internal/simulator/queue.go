package simulator

// eventLess orders the simulation timeline: time, then kind, then job,
// then sequence. The order is a strict total order over every event a run
// can enqueue — arrivals are unique per job, epoch ends unique per
// (job, seq), and ticks and capacity-source wakes each form a single
// chain (at most one in flight) — so any correct priority queue pops the
// identical sequence and the queue implementation can never change
// results.
func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.job != b.job {
		return a.job < b.job
	}
	// Same-time epoch ends of one job differ only by validity sequence.
	return a.seq < b.seq
}

// eventQueue is the simulator's priority queue: an index-based 4-ary
// min-heap over a flat event slice. Compared to container/heap it trades
// the interface indirection (an allocation per Push/Pop to box the event,
// plus dynamic dispatch per comparison) for direct sift loops, and the
// wider fan-out halves the tree depth — pops touch fewer cache lines on
// the simulation-length queues a long trace builds.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// push inserts e, sifting it up from the tail.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(q.ev[i], q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The queue must be non-empty.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev = q.ev[:n]
	// Sift the relocated tail element down: swap with the smallest child
	// while any child is smaller.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(q.ev[c], q.ev[min]) {
				min = c
			}
		}
		if !eventLess(q.ev[min], q.ev[i]) {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}
