// Package cluster models the shared GPU cluster and the schedule genome at
// the heart of ONES.
//
// Following the paper's Equation (1), a schedule is a mapping
//
//	S : J × C → {b_j^i}
//
// that assigns every GPU i a job j and a per-GPU (local) batch size b_j^i.
// Equation (2) derives the global batch size B_j = Σ_i b_j^i and the GPU
// count c_j = Σ_i min(1, b_j^i), and Equation (4) enforces that at most one
// job runs per GPU (no GPU sharing due to interference).
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// JobID identifies a job. NoJob marks an idle GPU.
type JobID int

// NoJob is the JobID of an unassigned GPU slot.
const NoJob JobID = -1

// GPUID indexes a GPU within a cluster topology, in [0, TotalGPUs).
// GPUs are numbered server by server in topology order.
type GPUID int

// ServerSpec describes one physical server: how many GPUs it carries and
// which rack (failure domain) it lives in. A rack drain removes every
// server sharing a Rack id at once.
type ServerSpec struct {
	GPUs int
	Rack int
}

// Topology describes the physical shape of the cluster as an ordered
// list of servers, each with its own GPU count and rack. The GPU axis a
// Schedule is defined over is the concatenation of the servers' GPUs in
// this order — a ragged axis when the fleet is mixed.
//
// Topology values are immutable by convention: constructors and the
// Schedule mutators always build fresh Servers slices, so copying a
// Topology (it travels by value through configs and views) never aliases
// a slice that later changes. Compare with Equal, not ==.
type Topology struct {
	Servers []ServerSpec
}

// MaxGPUs bounds the size of a cluster built from outside input (a shape
// string, a servers × GPUs pair): 1024× the paper's 64-GPU testbed. The
// bound is checked before anything is allocated, so no request can make
// a process build billions of servers.
const MaxGPUs = 1 << 16

// Uniform returns the homogeneous topology of the paper's model —
// servers identical multi-GPU machines of gpusPerServer GPUs, all in
// rack 0 (one failure domain, as on a single-rack testbed).
func Uniform(servers, gpusPerServer int) Topology {
	specs := make([]ServerSpec, servers)
	for i := range specs {
		specs[i] = ServerSpec{GPUs: gpusPerServer}
	}
	return Topology{Servers: specs}
}

// Longhorn returns the paper's evaluation topology: 16 servers × 4 GPUs.
func Longhorn() Topology { return Uniform(16, 4) }

// ParseShape parses a cluster shape like "4x8,2x4": comma-separated
// COUNTxGPUS groups, where group i's servers all land in rack i. A
// single group ("16x4") therefore describes a homogeneous single-rack
// cluster identical to Uniform(16, 4). Group order is significant — it
// fixes the GPU axis and the rack ids — so "4x8,2x4" and "2x4,4x8" are
// distinct topologies. A shape of more than MaxGPUs GPUs is an error.
func ParseShape(shape string) (Topology, error) {
	var specs []ServerSpec
	total := 0
	for rack, group := range strings.Split(shape, ",") {
		var count, gpus int
		g := strings.TrimSpace(group)
		if n, err := fmt.Sscanf(g, "%dx%d", &count, &gpus); n != 2 || err != nil ||
			g != fmt.Sprintf("%dx%d", count, gpus) {
			return Topology{}, fmt.Errorf("cluster: bad shape group %q in %q (want COUNTxGPUS, e.g. 4x8)", group, shape)
		}
		if count <= 0 || gpus <= 0 {
			return Topology{}, fmt.Errorf("cluster: bad shape group %q in %q: counts must be positive", group, shape)
		}
		if count > (MaxGPUs-total)/gpus { // by division: count*gpus can overflow int
			return Topology{}, fmt.Errorf("cluster: shape %q has more than %d GPUs", shape, MaxGPUs)
		}
		total += count * gpus
		for i := 0; i < count; i++ {
			specs = append(specs, ServerSpec{GPUs: gpus, Rack: rack})
		}
	}
	if len(specs) == 0 {
		return Topology{}, fmt.Errorf("cluster: empty shape %q", shape)
	}
	return Topology{Servers: specs}, nil
}

// Shape renders the topology in ParseShape syntax, one COUNTxGPUS group
// per run of consecutive servers sharing a GPU count and rack
// ("16x4", "4x8,2x4"). ParseShape(t.Shape()) reproduces t up to rack
// renumbering; for ParseShape-built topologies it is the identity.
func (t Topology) Shape() string {
	var b strings.Builder
	for i := 0; i < len(t.Servers); {
		j := i
		for j < len(t.Servers) && t.Servers[j] == t.Servers[i] {
			j++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%dx%d", j-i, t.Servers[i].GPUs)
		i = j
	}
	return b.String()
}

// String renders the topology as its shape.
func (t Topology) String() string { return t.Shape() }

// NumServers returns the number of servers.
func (t Topology) NumServers() int { return len(t.Servers) }

// TotalGPUs returns the number of GPUs in the cluster.
func (t Topology) TotalGPUs() int {
	var n int
	for _, s := range t.Servers {
		n += s.GPUs
	}
	return n
}

// ServerRange returns the half-open GPU index range [lo, hi) of server
// idx.
func (t Topology) ServerRange(idx int) (lo, hi GPUID) {
	var off int
	for i := 0; i < idx; i++ {
		off += t.Servers[i].GPUs
	}
	return GPUID(off), GPUID(off + t.Servers[idx].GPUs)
}

// MaxServerGPUs returns the largest per-server GPU count — the biggest
// single-server span a job can occupy without crossing machines.
func (t Topology) MaxServerGPUs() int {
	var m int
	for _, s := range t.Servers {
		if s.GPUs > m {
			m = s.GPUs
		}
	}
	return m
}

// MinServersFor returns the fewest servers that can hold c GPUs, packing
// the largest servers first. On a homogeneous cluster this is
// ⌈c / gpusPerServer⌉ (computed allocation-free — this sits on scheduler
// hot paths); mixed fleets pack greedily. Returns at least 1.
func (t Topology) MinServersFor(c int) int {
	if per, ok := t.Homogeneous(); ok {
		n := (c + per - 1) / per
		if n < 1 {
			n = 1
		}
		if n > len(t.Servers) {
			n = len(t.Servers)
		}
		return n
	}
	sizes := make([]int, 0, len(t.Servers))
	for _, s := range t.Servers {
		sizes = append(sizes, s.GPUs)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	n := 0
	for _, sz := range sizes {
		if c <= 0 {
			break
		}
		c -= sz
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Homogeneous reports whether every server carries the same GPU count,
// returning that count when so.
func (t Topology) Homogeneous() (gpusPerServer int, ok bool) {
	if len(t.Servers) == 0 {
		return 0, false
	}
	per := t.Servers[0].GPUs
	for _, s := range t.Servers[1:] {
		if s.GPUs != per {
			return 0, false
		}
	}
	return per, true
}

// Equal reports whether two topologies list identical servers (GPU
// counts and racks) in identical order. Topology carries a slice, so ==
// does not compile; Equal is the comparison.
func (t Topology) Equal(o Topology) bool {
	if len(t.Servers) != len(o.Servers) {
		return false
	}
	for i := range t.Servers {
		if t.Servers[i] != o.Servers[i] {
			return false
		}
	}
	return true
}

// Racks returns the distinct rack ids present, ascending.
func (t Topology) Racks() []int {
	seen := make(map[int]bool)
	var racks []int
	for _, s := range t.Servers {
		if !seen[s.Rack] {
			seen[s.Rack] = true
			racks = append(racks, s.Rack)
		}
	}
	sort.Ints(racks)
	return racks
}

// RackServers returns the server indices in rack, ascending.
func (t Topology) RackServers(rack int) []int {
	var idxs []int
	for i, s := range t.Servers {
		if s.Rack == rack {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// RackCapacity summarizes one rack's share of the cluster.
type RackCapacity struct {
	Rack    int
	Servers int
	GPUs    int
}

// RackSummary returns per-rack capacity, ascending by rack id.
func (t Topology) RackSummary() []RackCapacity {
	out := make([]RackCapacity, 0, 1)
	for _, rack := range t.Racks() {
		rc := RackCapacity{Rack: rack}
		for _, s := range t.Servers {
			if s.Rack == rack {
				rc.Servers++
				rc.GPUs += s.GPUs
			}
		}
		out = append(out, rc)
	}
	return out
}

// NextRack returns the rack id a fresh scale-up batch lands in: one past
// the largest rack id present (0 for an empty topology). New capacity is
// new hardware, physically elsewhere — it must not silently join an
// existing failure domain.
func (t Topology) NextRack() int {
	m := -1
	for _, s := range t.Servers {
		if s.Rack > m {
			m = s.Rack
		}
	}
	return m + 1
}

// Validate reports whether the topology is well formed.
func (t Topology) Validate() error {
	if len(t.Servers) == 0 {
		return fmt.Errorf("cluster: topology has no servers")
	}
	for i, s := range t.Servers {
		if s.GPUs <= 0 {
			return fmt.Errorf("cluster: server %d has %d GPUs", i, s.GPUs)
		}
		if s.Rack < 0 {
			return fmt.Errorf("cluster: server %d has negative rack %d", i, s.Rack)
		}
	}
	return nil
}

// Slot is one gene of the schedule genome: the job occupying a GPU and the
// local batch size it runs there. An idle GPU has Job == NoJob and Batch 0.
type Slot struct {
	Job   JobID
	Batch int
}

// Idle reports whether the slot is unassigned.
func (s Slot) Idle() bool { return s.Job == NoJob }

// Schedule is the genome: one Slot per GPU. The zero value is unusable;
// construct with NewSchedule.
type Schedule struct {
	topo  Topology
	slots []Slot
}

// NewSchedule returns an empty (all idle) schedule over topo.
func NewSchedule(topo Topology) *Schedule {
	s := &Schedule{topo: topo, slots: make([]Slot, topo.TotalGPUs())}
	for i := range s.slots {
		s.slots[i] = Slot{Job: NoJob}
	}
	return s
}

// Topology returns the cluster topology the schedule is defined over.
func (s *Schedule) Topology() Topology { return s.topo }

// NumGPUs returns the number of GPUs (genes) in the schedule.
func (s *Schedule) NumGPUs() int { return len(s.slots) }

// Slot returns the gene for GPU g.
func (s *Schedule) Slot(g GPUID) Slot { return s.slots[g] }

// Slots returns the genome's backing slice, one Slot per GPU in axis
// order. Callers must not retain it across mutations, and may write to it
// only by permuting its entries; it exists so hot paths (the evolution
// scorer and reorder operator) can make one pass over the genome without
// per-GPU method calls or copies.
func (s *Schedule) Slots() []Slot { return s.slots }

// SetSlot assigns GPU g to job j with local batch b. Passing NoJob (or a
// non-positive batch) clears the slot.
func (s *Schedule) SetSlot(g GPUID, j JobID, b int) {
	if j == NoJob || b <= 0 {
		s.slots[g] = Slot{Job: NoJob}
		return
	}
	s.slots[g] = Slot{Job: j, Batch: b}
}

// Clear marks GPU g idle.
func (s *Schedule) Clear(g GPUID) { s.slots[g] = Slot{Job: NoJob} }

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{topo: s.topo, slots: make([]Slot, len(s.slots))}
	copy(c.slots, s.slots)
	return c
}

// CopyFrom overwrites s with o's topology and slots, reusing s's slot
// storage when it is large enough. The allocation-free counterpart of
// Clone for hot paths that maintain a long-lived schedule buffer.
func (s *Schedule) CopyFrom(o *Schedule) {
	s.topo = o.topo
	if cap(s.slots) < len(o.slots) {
		s.slots = make([]Slot, len(o.slots))
	}
	s.slots = s.slots[:len(o.slots)]
	copy(s.slots, o.slots)
}

// Equal reports whether two schedules assign identical slots over the same
// topology.
func (s *Schedule) Equal(o *Schedule) bool {
	if !s.topo.Equal(o.topo) || len(s.slots) != len(o.slots) {
		return false
	}
	for i := range s.slots {
		if s.slots[i] != o.slots[i] {
			return false
		}
	}
	return true
}

// GlobalBatch returns B_j = Σ_i b_j^i (Equation 2).
func (s *Schedule) GlobalBatch(j JobID) int {
	var b int
	for _, sl := range s.slots {
		if sl.Job == j {
			b += sl.Batch
		}
	}
	return b
}

// GPUCount returns c_j = Σ_i min(1, b_j^i) (Equation 2).
func (s *Schedule) GPUCount(j JobID) int {
	var c int
	for _, sl := range s.slots {
		if sl.Job == j {
			c++
		}
	}
	return c
}

// GPUsOf returns the GPUs currently assigned to job j, in index order.
func (s *Schedule) GPUsOf(j JobID) []GPUID {
	var gs []GPUID
	for i, sl := range s.slots {
		if sl.Job == j {
			gs = append(gs, GPUID(i))
		}
	}
	return gs
}

// RunningJobs returns the set of jobs with at least one GPU, in order of
// first appearance on the GPU axis.
func (s *Schedule) RunningJobs() []JobID {
	seen := make(map[JobID]bool)
	var jobs []JobID
	for _, sl := range s.slots {
		if sl.Idle() || seen[sl.Job] {
			continue
		}
		seen[sl.Job] = true
		jobs = append(jobs, sl.Job)
	}
	return jobs
}

// IsRunning reports whether job j holds at least one GPU.
func (s *Schedule) IsRunning(j JobID) bool {
	for _, sl := range s.slots {
		if sl.Job == j {
			return true
		}
	}
	return false
}

// IdleGPUs returns the unassigned GPUs in index order.
func (s *Schedule) IdleGPUs() []GPUID {
	var gs []GPUID
	for i, sl := range s.slots {
		if sl.Idle() {
			gs = append(gs, GPUID(i))
		}
	}
	return gs
}

// NumIdle returns the number of unassigned GPUs.
func (s *Schedule) NumIdle() int {
	var n int
	for _, sl := range s.slots {
		if sl.Idle() {
			n++
		}
	}
	return n
}

// AddServerSpecs appends idle servers with the given shapes and racks at
// the tail of the GPU axis — mixed-fleet scale-up, or a drained rack's
// exact servers restocked. Existing assignments are untouched.
func (s *Schedule) AddServerSpecs(specs ...ServerSpec) {
	if len(specs) == 0 {
		return
	}
	// Rebuild rather than append in place: Topology values are shared
	// across Schedule copies, so the backing array must never mutate.
	next := make([]ServerSpec, 0, len(s.topo.Servers)+len(specs))
	next = append(next, s.topo.Servers...)
	next = append(next, specs...)
	s.topo = Topology{Servers: next}
	for _, sp := range specs {
		for i := 0; i < sp.GPUs; i++ {
			s.slots = append(s.slots, Slot{Job: NoJob})
		}
	}
}

// RemoveServer deletes server idx from the topology — a failure, spot
// preemption or maintenance drain. Its slots vanish (later servers shift
// down one index) and the jobs that held at least one GPU on it are
// returned in slot order; the caller decides their fate (typically a full
// eviction, since losing any worker stops a gang). Jobs entirely on other
// servers keep their GPU counts, batch totals and server spans.
func (s *Schedule) RemoveServer(idx int) []JobID {
	if idx < 0 || idx >= len(s.topo.Servers) || len(s.topo.Servers) <= 1 {
		return nil
	}
	lo, hi := s.topo.ServerRange(idx)
	seen := make(map[JobID]bool)
	var victims []JobID
	for _, sl := range s.slots[lo:hi] {
		if !sl.Idle() && !seen[sl.Job] {
			seen[sl.Job] = true
			victims = append(victims, sl.Job)
		}
	}
	s.slots = append(s.slots[:lo], s.slots[hi:]...)
	next := make([]ServerSpec, 0, len(s.topo.Servers)-1)
	next = append(next, s.topo.Servers[:idx]...)
	next = append(next, s.topo.Servers[idx+1:]...)
	s.topo = Topology{Servers: next}
	return victims
}

// Evict removes job j from every GPU it occupies and returns the number of
// slots freed.
func (s *Schedule) Evict(j JobID) int {
	var n int
	for i, sl := range s.slots {
		if sl.Job == j {
			s.slots[i] = Slot{Job: NoJob}
			n++
		}
	}
	return n
}

// Validate checks genome invariants: every slot either idle with zero batch
// or assigned with a positive batch (Equation 4 exclusivity is structural:
// a slot holds exactly one job).
func (s *Schedule) Validate() error {
	if err := s.topo.Validate(); err != nil {
		return err
	}
	if len(s.slots) != s.topo.TotalGPUs() {
		return fmt.Errorf("cluster: %d slots for %d GPUs", len(s.slots), s.topo.TotalGPUs())
	}
	for i, sl := range s.slots {
		if sl.Idle() && sl.Batch != 0 {
			return fmt.Errorf("cluster: idle GPU %d has batch %d", i, sl.Batch)
		}
		if !sl.Idle() && sl.Batch <= 0 {
			return fmt.Errorf("cluster: GPU %d runs job %d with batch %d", i, sl.Job, sl.Batch)
		}
	}
	return nil
}

// Fragments returns the number of contiguous GPU spans occupied by job j.
// A perfectly packed job has one fragment; the paper's reorder operator
// exists to drive this number down (better locality, less cross-server
// communication).
func (s *Schedule) Fragments(j JobID) int {
	var frags int
	inRun := false
	for _, sl := range s.slots {
		if sl.Job == j {
			if !inRun {
				frags++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	return frags
}

// ServersOf returns the number of distinct servers hosting job j. Jobs
// spanning more servers pay higher communication cost in the performance
// model.
func (s *Schedule) ServersOf(j JobID) int {
	n, idx := 0, 0
	for _, spec := range s.topo.Servers {
		for k := 0; k < spec.GPUs; k++ {
			if s.slots[idx+k].Job == j {
				n++
				break
			}
		}
		idx += spec.GPUs
	}
	return n
}

// String renders the genome like Figure 1: one bracketed group per server,
// each GPU shown as "job:batch" or "-" when idle.
func (s *Schedule) String() string {
	var b strings.Builder
	idx := 0
	for srv, spec := range s.topo.Servers {
		if srv > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for k := 0; k < spec.GPUs; k++ {
			if k > 0 {
				b.WriteByte(' ')
			}
			sl := s.slots[idx+k]
			if sl.Idle() {
				b.WriteByte('-')
			} else {
				fmt.Fprintf(&b, "%d:%d", sl.Job, sl.Batch)
			}
		}
		b.WriteByte(']')
		idx += spec.GPUs
	}
	return b.String()
}
