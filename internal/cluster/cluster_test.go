package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTopologyBasics(t *testing.T) {
	topo := Longhorn()
	if got := topo.TotalGPUs(); got != 64 {
		t.Fatalf("Longhorn TotalGPUs = %d, want 64", got)
	}
	if got := topo.ServerOf(0); got != 0 {
		t.Errorf("ServerOf(0) = %d", got)
	}
	if got := topo.ServerOf(4); got != 1 {
		t.Errorf("ServerOf(4) = %d, want 1", got)
	}
	if got := topo.ServerOf(63); got != 15 {
		t.Errorf("ServerOf(63) = %d, want 15", got)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := (Uniform(0, 4)).Validate(); err == nil {
		t.Error("expected error for zero servers")
	}
}

func TestNewScheduleAllIdle(t *testing.T) {
	s := NewSchedule(Uniform(2, 2))
	if s.NumIdle() != 4 {
		t.Fatalf("NumIdle = %d, want 4", s.NumIdle())
	}
	if len(s.RunningJobs()) != 0 {
		t.Error("fresh schedule should have no running jobs")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSetSlotAndDerivedQuantities(t *testing.T) {
	s := NewSchedule(Uniform(2, 4))
	s.SetSlot(0, 1, 128)
	s.SetSlot(1, 1, 128)
	s.SetSlot(2, 2, 64)
	s.SetSlot(5, 1, 256)

	if got := s.GlobalBatch(1); got != 512 {
		t.Errorf("GlobalBatch(1) = %d, want 512", got)
	}
	if got := s.GPUCount(1); got != 3 {
		t.Errorf("GPUCount(1) = %d, want 3", got)
	}
	if got := s.GPUCount(2); got != 1 {
		t.Errorf("GPUCount(2) = %d, want 1", got)
	}
	if got := s.GlobalBatch(99); got != 0 {
		t.Errorf("GlobalBatch(unknown) = %d, want 0", got)
	}
	if got := s.NumIdle(); got != 4 {
		t.Errorf("NumIdle = %d, want 4", got)
	}
	if !s.IsRunning(1) || s.IsRunning(99) {
		t.Error("IsRunning wrong")
	}
	gpus := s.GPUsOf(1)
	if len(gpus) != 3 || gpus[0] != 0 || gpus[1] != 1 || gpus[2] != 5 {
		t.Errorf("GPUsOf(1) = %v", gpus)
	}
}

func TestSetSlotClearsOnNoJobOrZeroBatch(t *testing.T) {
	s := NewSchedule(Uniform(1, 2))
	s.SetSlot(0, 3, 32)
	s.SetSlot(0, NoJob, 10)
	if !s.Slot(0).Idle() {
		t.Error("SetSlot(NoJob) should clear")
	}
	s.SetSlot(1, 3, 0)
	if !s.Slot(1).Idle() {
		t.Error("SetSlot batch=0 should clear")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRunningJobsOrderOfFirstAppearance(t *testing.T) {
	s := NewSchedule(Uniform(1, 6))
	s.SetSlot(0, 7, 1)
	s.SetSlot(1, 3, 1)
	s.SetSlot(2, 7, 1)
	s.SetSlot(4, 5, 1)
	jobs := s.RunningJobs()
	want := []JobID{7, 3, 5}
	if len(jobs) != len(want) {
		t.Fatalf("RunningJobs = %v, want %v", jobs, want)
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("RunningJobs = %v, want %v", jobs, want)
		}
	}
}

func TestEvict(t *testing.T) {
	s := NewSchedule(Uniform(1, 4))
	s.SetSlot(0, 1, 8)
	s.SetSlot(1, 1, 8)
	s.SetSlot(2, 2, 8)
	if n := s.Evict(1); n != 2 {
		t.Errorf("Evict freed %d, want 2", n)
	}
	if s.IsRunning(1) {
		t.Error("job 1 still running after eviction")
	}
	if !s.IsRunning(2) {
		t.Error("job 2 disappeared")
	}
	if n := s.Evict(42); n != 0 {
		t.Errorf("Evict(absent) freed %d, want 0", n)
	}
}

func TestAddServersAppendsIdleCapacity(t *testing.T) {
	s := NewSchedule(Uniform(2, 4))
	s.SetSlot(0, 1, 8)
	s.AddServers(2)
	got := s.Topology()
	if got.NumServers() != 4 || got.TotalGPUs() != 16 {
		t.Fatalf("topology after AddServers(2) = %+v", got)
	}
	// Joined servers match the first server's GPU count and open a fresh
	// rack — new capacity is a new failure domain.
	for _, idx := range []int{2, 3} {
		if got.Servers[idx] != (ServerSpec{GPUs: 4, Rack: 1}) {
			t.Errorf("joined server %d = %+v, want 4 GPUs in rack 1", idx, got.Servers[idx])
		}
	}
	if s.NumGPUs() != 16 || s.NumIdle() != 15 {
		t.Errorf("GPUs %d idle %d, want 16/15", s.NumGPUs(), s.NumIdle())
	}
	if s.Slot(0).Job != 1 {
		t.Error("existing assignment lost on scale-up")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	s.AddServers(0)
	s.AddServers(-3)
	if s.Topology().NumServers() != 4 {
		t.Error("non-positive AddServers changed the topology")
	}
}

func TestRemoveServerEvictsOnlyItsJobsAndShifts(t *testing.T) {
	s := NewSchedule(Uniform(3, 2))
	s.SetSlot(0, 1, 8) // job 1 entirely on server 0
	s.SetSlot(1, 1, 8)
	s.SetSlot(2, 2, 4) // job 2 spans servers 1 and 2
	s.SetSlot(4, 2, 4)
	s.SetSlot(5, 3, 16) // job 3 on server 2 only

	victims := s.RemoveServer(1)
	if len(victims) != 1 || victims[0] != 2 {
		t.Fatalf("RemoveServer(1) victims = %v, want [2]", victims)
	}
	if got := s.Topology(); !got.Equal(Uniform(2, 2)) {
		t.Fatalf("topology = %+v", got)
	}
	// Job 1 untouched; job 3 shifted down one server but intact; job 2
	// keeps its surviving slot (the caller evicts the remainder).
	if s.GPUCount(1) != 2 || s.GlobalBatch(1) != 16 {
		t.Errorf("job 1 disturbed: c=%d B=%d", s.GPUCount(1), s.GlobalBatch(1))
	}
	if s.GPUCount(3) != 1 || s.ServersOf(3) != 1 {
		t.Errorf("job 3 lost slots: c=%d", s.GPUCount(3))
	}
	if s.GPUCount(2) != 1 {
		t.Errorf("job 2 surviving slots = %d, want 1", s.GPUCount(2))
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemoveServerBounds(t *testing.T) {
	s := NewSchedule(Uniform(2, 2))
	if v := s.RemoveServer(-1); v != nil {
		t.Errorf("RemoveServer(-1) = %v", v)
	}
	if v := s.RemoveServer(2); v != nil {
		t.Errorf("RemoveServer(out of range) = %v", v)
	}
	s.RemoveServer(0)
	if v := s.RemoveServer(0); v != nil || s.Topology().NumServers() != 1 {
		t.Error("the last server must never be removable")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := NewSchedule(Uniform(1, 2))
	s.SetSlot(0, 1, 8)
	c := s.Clone()
	c.SetSlot(0, 2, 16)
	if s.Slot(0).Job != 1 {
		t.Error("Clone shares slot storage with original")
	}
	if !s.Clone().Equal(s) {
		t.Error("Clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	a := NewSchedule(Uniform(1, 2))
	b := NewSchedule(Uniform(1, 2))
	if !a.Equal(b) {
		t.Error("two empty schedules should be equal")
	}
	b.SetSlot(0, 1, 4)
	if a.Equal(b) {
		t.Error("different schedules reported equal")
	}
	c := NewSchedule(Uniform(2, 1))
	if a.Equal(c) {
		t.Error("different topologies reported equal")
	}
}

func TestFragmentsAndServers(t *testing.T) {
	s := NewSchedule(Uniform(2, 4))
	// Job 1 on GPUs 0,1 (one fragment, one server).
	s.SetSlot(0, 1, 1)
	s.SetSlot(1, 1, 1)
	// Job 2 on GPUs 3 and 5 (two fragments, two servers).
	s.SetSlot(3, 2, 1)
	s.SetSlot(5, 2, 1)
	if got := s.Fragments(1); got != 1 {
		t.Errorf("Fragments(1) = %d, want 1", got)
	}
	if got := s.Fragments(2); got != 2 {
		t.Errorf("Fragments(2) = %d, want 2", got)
	}
	if got := s.ServersOf(1); got != 1 {
		t.Errorf("ServersOf(1) = %d, want 1", got)
	}
	if got := s.ServersOf(2); got != 2 {
		t.Errorf("ServersOf(2) = %d, want 2", got)
	}
}

func TestReorderPacksByFirstOccurrence(t *testing.T) {
	// Mirrors Figure 10: [3 1 2 2 2 1] reorders to [3 1 1 2 2 2].
	s := NewSchedule(Uniform(1, 6))
	vals := []struct {
		j JobID
		b int
	}{{3, 4}, {1, 8}, {2, 2}, {2, 2}, {2, 2}, {1, 8}}
	for i, v := range vals {
		s.SetSlot(GPUID(i), v.j, v.b)
	}
	s.Reorder()
	wantJobs := []JobID{3, 1, 1, 2, 2, 2}
	for i, w := range wantJobs {
		if got := s.Slot(GPUID(i)).Job; got != w {
			t.Fatalf("after Reorder slot %d = job %d, want %d (%v)", i, got, w, s)
		}
	}
	for _, j := range []JobID{1, 2, 3} {
		if got := s.Fragments(j); got != 1 {
			t.Errorf("after Reorder Fragments(%d) = %d, want 1", j, got)
		}
	}
}

// randomSchedule builds a valid random schedule for property tests.
func randomSchedule(rng *rand.Rand) *Schedule {
	topo := Uniform(1+rng.Intn(4), 1+rng.Intn(6))
	s := NewSchedule(topo)
	for g := 0; g < s.NumGPUs(); g++ {
		if rng.Float64() < 0.3 {
			continue // leave idle
		}
		s.SetSlot(GPUID(g), JobID(rng.Intn(5)), 1<<uint(rng.Intn(8)))
	}
	return s
}

func TestReorderPreservesPerJobTotalsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		before := make(map[JobID][2]int)
		for _, j := range s.RunningJobs() {
			before[j] = [2]int{s.GlobalBatch(j), s.GPUCount(j)}
		}
		idleBefore := s.NumIdle()
		s.Reorder()
		if s.Validate() != nil || s.NumIdle() != idleBefore {
			return false
		}
		for j, w := range before {
			if s.GlobalBatch(j) != w[0] || s.GPUCount(j) != w[1] {
				return false
			}
		}
		// Every running job must be contiguous after reorder.
		for _, j := range s.RunningJobs() {
			if s.Fragments(j) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// reorderReference is the map-based Reorder that the hash-free scan
// replaced, kept as the oracle for TestReorderMatchesMapReferenceProperty.
func reorderReference(s *Schedule) {
	next := make(map[JobID]int)
	var order []JobID
	for _, sl := range s.slots {
		if sl.Idle() {
			continue
		}
		if _, ok := next[sl.Job]; !ok {
			order = append(order, sl.Job)
		}
		next[sl.Job]++
	}
	idx := 0
	for _, j := range order {
		n := next[j]
		next[j] = idx
		idx += n
	}
	old := append([]Slot(nil), s.slots...)
	for _, sl := range old {
		if sl.Idle() {
			continue
		}
		s.slots[next[sl.Job]] = sl
		next[sl.Job]++
	}
	for ; idx < len(s.slots); idx++ {
		s.slots[idx] = Slot{Job: NoJob}
	}
}

// sparseSchedule builds a random genome on a random ragged topology whose
// jobs interleave non-contiguously and carry sparse, large IDs: the
// inputs on which a scan that starts from the previous slot's hit has to
// fall back to a full search.
func sparseSchedule(rng *rand.Rand) *Schedule {
	specs := make([]ServerSpec, 1+rng.Intn(8))
	for i := range specs {
		specs[i] = ServerSpec{GPUs: 1 + rng.Intn(8)}
	}
	s := NewSchedule(Topology{Servers: specs})
	ids := make([]JobID, 1+rng.Intn(40))
	for i := range ids {
		ids[i] = JobID(1_000_000 + rng.Intn(1<<30))
	}
	for g := 0; g < s.NumGPUs(); g++ {
		if rng.Float64() < 0.25 {
			continue // leave idle
		}
		s.SetSlot(GPUID(g), ids[rng.Intn(len(ids))], 1+rng.Intn(512))
	}
	return s
}

// TestReorderMatchesMapReferenceProperty pins Reorder slot for slot —
// order, job and local batch — against the map-based reference.
func TestReorderMatchesMapReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sparseSchedule(rng)
		want := s.Clone()
		reorderReference(want)
		s.Reorder()
		if !s.Equal(want) {
			t.Logf("Reorder = %v\nreference = %v", s, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGlobalBatchEqualsSumOfSlotsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		// Sum of per-job global batches equals sum over all slots.
		var total int
		for _, j := range s.RunningJobs() {
			total += s.GlobalBatch(j)
		}
		var slotSum int
		for g := 0; g < s.NumGPUs(); g++ {
			slotSum += s.Slot(GPUID(g)).Batch
		}
		// And GPU counts partition the non-idle slots.
		var cSum int
		for _, j := range s.RunningJobs() {
			cSum += s.GPUCount(j)
		}
		return total == slotSum && cSum == s.NumGPUs()-s.NumIdle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := NewSchedule(Uniform(2, 2))
	s.SetSlot(0, 1, 32)
	got := s.String()
	want := "[1:32 -] [- -]"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAllocations(t *testing.T) {
	s := NewSchedule(Uniform(2, 2))
	s.SetSlot(0, 5, 16)
	s.SetSlot(1, 5, 16)
	s.SetSlot(2, 9, 64)
	as := s.Allocations()
	if len(as) != 2 {
		t.Fatalf("Allocations len = %d, want 2", len(as))
	}
	if as[0].Job != 5 || as[0].GPUs != 2 || as[0].GlobalBatch != 32 || as[0].Servers != 1 {
		t.Errorf("Allocations[0] = %+v", as[0])
	}
	if as[1].Job != 9 || as[1].GPUs != 1 || as[1].GlobalBatch != 64 {
		t.Errorf("Allocations[1] = %+v", as[1])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := NewSchedule(Uniform(1, 2))
	s.slots[0] = Slot{Job: 1, Batch: 0} // corrupt directly
	if err := s.Validate(); err == nil {
		t.Error("Validate missed assigned slot with zero batch")
	}
	s2 := NewSchedule(Uniform(1, 2))
	s2.slots[1] = Slot{Job: NoJob, Batch: 5}
	if err := s2.Validate(); err == nil {
		t.Error("Validate missed idle slot with nonzero batch")
	}
}
