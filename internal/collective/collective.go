// Package collective implements the communication substrate ONES's elastic
// scaling mechanism relies on (the paper uses NCCL): ring all-reduce,
// broadcast and barrier among a group of workers. Workers here are
// goroutines connected by channels; the algorithms are the real ones —
// ring reduce-scatter + all-gather for all-reduce, ring rotation for
// broadcast — so the live runtime's "reconnect to the new topology and
// broadcast parameters" workflow (Figure 12) exercises genuine collective
// code paths rather than stubs.
package collective

import (
	"fmt"
)

// message is one hop on the ring.
type message struct {
	chunk []float32
}

// Group is a communicator over n ranks arranged in a ring. Build one with
// NewGroup; rank i sends to (i+1) mod n. A Group is immutable: elastic
// scaling creates a fresh Group for the new topology, exactly as the
// paper's workers "quit from the previous topology" and "connect to the
// new topology together".
type Group struct {
	size  int
	rings []chan message // rings[i]: channel from rank i to rank (i+1)%n
}

// NewGroup returns a communicator group for n ranks.
func NewGroup(n int) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collective: group size %d", n)
	}
	g := &Group{size: n, rings: make([]chan message, n)}
	for i := range g.rings {
		g.rings[i] = make(chan message, 1)
	}
	return g, nil
}

// Comm binds a rank to the group; each worker goroutine holds its own.
func (g *Group) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= g.size {
		return nil, fmt.Errorf("collective: rank %d outside group of %d", rank, g.size)
	}
	return &Comm{g: g, rank: rank}, nil
}

// Comm is one rank's endpoint. All ranks of a group must call the same
// collective operations in the same order (standard SPMD contract); the
// implementation deadlocks otherwise, like a real collective library.
type Comm struct {
	g    *Group
	rank int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// sendRight pushes a chunk to the clockwise neighbour.
func (c *Comm) sendRight(chunk []float32) { c.g.rings[c.rank] <- message{chunk: chunk} }

// recvLeft pops the chunk arriving from the counter-clockwise neighbour.
func (c *Comm) recvLeft() []float32 {
	left := (c.rank - 1 + c.g.size) % c.g.size
	return (<-c.g.rings[left]).chunk
}

// chunkBounds splits length ln into one contiguous chunk per rank; chunk i is
// [lo, hi). Chunks differ in size by at most one element.
func (c *Comm) chunkBounds(ln, i int) (lo, hi int) {
	n := c.g.size
	base := ln / n
	rem := ln % n
	lo = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

// AllReduceSum sums buf element-wise across all ranks; on return every
// rank's buf holds the total. Single-rank groups return immediately.
//
// The algorithm is the bandwidth-optimal ring all-reduce: n−1 steps of
// reduce-scatter followed by n−1 steps of all-gather, moving 2(n−1)/n of
// the buffer per rank — the same traffic pattern the throughput model in
// perfmodel charges for.
func (c *Comm) AllReduceSum(buf []float32) {
	n := c.g.size
	if n == 1 || len(buf) == 0 {
		return
	}
	// Reduce-scatter: after step s, rank r owns the partial sum of chunk
	// (r − s + n) % n. Start by sending own chunk index = rank.
	for s := 0; s < n-1; s++ {
		sendIdx := (c.rank - s + n) % n
		lo, hi := c.chunkBounds(len(buf), sendIdx)
		out := make([]float32, hi-lo)
		copy(out, buf[lo:hi])
		c.sendRight(out)
		recvIdx := (c.rank - s - 1 + n) % n
		lo, hi = c.chunkBounds(len(buf), recvIdx)
		in := c.recvLeft()
		for i := lo; i < hi; i++ {
			buf[i] += in[i-lo]
		}
	}
	// All-gather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		sendIdx := (c.rank + 1 - s + n) % n
		lo, hi := c.chunkBounds(len(buf), sendIdx)
		out := make([]float32, hi-lo)
		copy(out, buf[lo:hi])
		c.sendRight(out)
		recvIdx := (c.rank - s + n) % n
		lo, hi = c.chunkBounds(len(buf), recvIdx)
		in := c.recvLeft()
		copy(buf[lo:hi], in)
	}
}

// AllReduceMean averages buf element-wise across all ranks (gradient
// averaging in data-parallel SGD).
func (c *Comm) AllReduceMean(buf []float32) {
	c.AllReduceSum(buf)
	inv := float32(1) / float32(c.g.size)
	for i := range buf {
		buf[i] *= inv
	}
}

// Broadcast copies root's buf to every rank (parameter distribution when
// new workers join, Figure 12's final step). Implemented as a ring
// rotation: each rank forwards once, so the root's data reaches everyone
// in n−1 hops.
func (c *Comm) Broadcast(buf []float32, root int) error {
	n := c.g.size
	if root < 0 || root >= n {
		return fmt.Errorf("collective: broadcast root %d outside group of %d", root, n)
	}
	if n == 1 {
		return nil
	}
	// distance from root along the ring
	dist := (c.rank - root + n) % n
	if dist == 0 {
		out := make([]float32, len(buf))
		copy(out, buf)
		c.sendRight(out)
		// Absorb the copy that comes all the way around.
		<-c.g.rings[(c.rank-1+n)%n]
		return nil
	}
	in := c.recvLeft()
	copy(buf, in)
	c.sendRight(in) // forward (the last hop is absorbed by the root)
	return nil
}
