// Package store holds the fixture's internal declarations: fields that
// are only stored (reported) next to fields that are read (not), and
// methods reached through an interface next to one that only shares a
// method name with it.
package store

// Counters mixes fields that are only stored with fields that are read.
type Counters struct {
	set       int // only assigned: reported
	bump      int // only incremented: reported
	keyed     int // only set in a keyed literal: reported
	addressed int // read through &c.addressed: not reported
	Tagged    int `json:"tagged"` // tagged, so exempt
}

// NewCounters stores keyed but never reads it.
func NewCounters() *Counters { return &Counters{keyed: 1} }

// Touch stores into set and bump without reading them.
func (c *Counters) Touch() {
	c.set = 2
	c.bump++
}

// Addr reads addressed by taking its address.
func (c *Counters) Addr() *int { return &c.addressed }

// Pair is built only by an unkeyed literal, which stores both fields.
type Pair struct{ a, b int }

// MakePair stores a and b without reading them.
func MakePair() Pair { return Pair{1, 2} }

// Sizer is the interface the fixture mentions.
type Sizer interface{ Size() int }

// Total calls Size through Sizer.
func Total(s Sizer) int { return s.Size() }

// Box implements Sizer, so Size may be called through it.
type Box struct{}

// Size implements Sizer.
func (Box) Size() int { return 1 }

// Group has a Size method of another signature: it does not implement
// Sizer, and nothing calls it.
type Group struct{}

// Size shares only its name with Sizer.Size: reported.
func (Group) Size() int64 { return 0 }

// String is exempt without any mention of fmt.Stringer.
func (Group) String() string { return "group" }
