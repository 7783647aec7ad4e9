package scenario

// OriginAutoscaler marks a CapacityEvent emitted by a reactive
// autoscaling controller (see internal/autoscale), as opposed to a
// pre-planned timeline or a seeded chaos process. The simulator counts
// applied autoscaler events separately (Result.ScaleUps/ScaleDowns/
// AutoscaleEvents) so a reactive run's controller activity is visible in
// the result.
const OriginAutoscaler = "autoscaler"

// ClusterView is the read-only cluster snapshot the simulator hands a
// CapacitySource at each decision boundary. It contains only observable
// quantities — no oracle knowledge of remaining work — so a reactive
// controller sees exactly what a production autoscaler watching cluster
// metrics would see.
type ClusterView struct {
	// Now is the simulated time of the snapshot, in seconds.
	Now float64
	// Servers is the number of live servers.
	Servers int
	// TotalGPUs is the live cluster capacity.
	TotalGPUs int
	// BusyGPUs is how many GPUs currently hold a job.
	BusyGPUs int
	// PendingGPUs sums the user-requested GPU counts of the queued jobs —
	// the demand the cluster is not currently serving.
	PendingGPUs int
}

// Pressure returns (busy + pending demand) / capacity: 1.0 means the
// cluster exactly fits current demand, above 1.0 jobs are queueing, well
// below 1.0 capacity is idle. The reactive controllers trigger on
// sustained pressure rather than raw utilization so queued demand —
// invisible to utilization, which saturates at 1 — still drives
// scale-up.
func (v ClusterView) Pressure() float64 {
	if v.TotalGPUs <= 0 {
		return 0
	}
	return float64(v.BusyGPUs+v.PendingGPUs) / float64(v.TotalGPUs)
}

// CapacitySource produces capacity events while a simulation runs. It
// generalizes the precomputed CapacitySpec timeline: planned schedules
// and seeded chaos processes (TimelineSource) and closed-loop reactive
// controllers (autoscale.Controller) are interchangeable behind it — the
// simulator neither knows nor cares whether the cluster's next change
// was scheduled in advance or decided by feedback.
//
// The simulator drives a source with two calls. NextWake(now) asks when
// the source next wants control (now = the time of the previous
// consultation, -1 before the first); the simulator schedules a decision
// boundary there. Next(now, view) is called at that boundary with a
// read-only ClusterView and returns the events to apply, in order, each
// applied at the current time. An event's own Time stamps when it fell
// due (its scheduled time, or now for a controller's decision) and must
// never go back: the simulator rejects an event earlier than the last
// one it consumed. Sources are consulted from the single-threaded
// simulation loop, with now nondecreasing across calls, so a
// deterministic source yields deterministic runs at any engine worker
// count or evolution parallelism.
type CapacitySource interface {
	// Next returns the capacity events to apply at now. A source polled
	// before its own next boundary (a sibling source's wake in a
	// composed run) returns nil.
	Next(now float64, view ClusterView) []CapacityEvent
	// NextWake returns the simulated time of the source's next decision
	// boundary strictly after now, or a negative value when the source
	// is exhausted. now is -1 before the first consultation.
	NextWake(now float64) float64
}

// TimelineSource adapts a precomputed, time-sorted capacity timeline
// (see CapacitySpec.Timeline) to the CapacitySource interface: it wakes
// at each event's exact time and returns the events that have come due.
// An unsorted timeline delivers an event earlier than its predecessor,
// which the simulator rejects.
type TimelineSource struct {
	events []CapacityEvent
	idx    int
}

// NewTimelineSource wraps a time-sorted event list. The slice is
// retained, not copied.
func NewTimelineSource(events []CapacityEvent) *TimelineSource {
	return &TimelineSource{events: events}
}

// NextWake implements CapacitySource: the time of the first event not
// yet delivered.
func (s *TimelineSource) NextWake(now float64) float64 {
	if s.idx >= len(s.events) {
		return -1
	}
	return s.events[s.idx].Time
}

// Next implements CapacitySource: every event with Time ≤ now, in
// timeline order.
func (s *TimelineSource) Next(now float64, _ ClusterView) []CapacityEvent {
	start := s.idx
	for s.idx < len(s.events) && s.events[s.idx].Time <= now {
		s.idx++
	}
	if s.idx == start {
		return nil
	}
	return s.events[start:s.idx]
}

// multiSource composes several capacity sources: it wakes at the
// earliest child wake and polls every child at each boundary (children
// not yet due return nil), delivering events in child order.
type multiSource struct {
	srcs []CapacitySource
}

// Sources composes capacity sources into one. Nil entries are dropped;
// zero live sources yield nil (a static world), a single source is
// returned as itself.
func Sources(srcs ...CapacitySource) CapacitySource {
	live := make([]CapacitySource, 0, len(srcs))
	for _, s := range srcs {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multiSource{srcs: live}
}

// NextWake implements CapacitySource: the earliest pending child wake.
func (m *multiSource) NextWake(now float64) float64 {
	next := -1.0
	for _, s := range m.srcs {
		if t := s.NextWake(now); t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	return next
}

// Next implements CapacitySource: concatenates the children's due
// events in child order.
func (m *multiSource) Next(now float64, view ClusterView) []CapacityEvent {
	var out []CapacityEvent
	for _, s := range m.srcs {
		out = append(out, s.Next(now, view)...)
	}
	return out
}
