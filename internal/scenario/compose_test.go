package scenario

import (
	"errors"
	"strings"
	"testing"
)

func TestComposeMergesDisjointDimensions(t *testing.T) {
	s, err := Compose(Diurnal, Spot)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "diurnal+spot" {
		t.Errorf("Name = %q", s.Name)
	}
	if s.Arrival.Kind != ArrivalDiurnal {
		t.Errorf("arrival process not taken from diurnal: %+v", s.Arrival)
	}
	if s.Capacity.PreemptMTBF != 400 || s.Capacity.PreemptRestock != 800 {
		t.Errorf("preemption process not taken from spot: %+v", s.Capacity)
	}
	if s.Capacity.MinServers != 2 {
		t.Errorf("MinServers = %d, want spot's floor 2", s.Capacity.MinServers)
	}
	if s.Capacity.IsStatic() {
		t.Error("composed spec lost its capacity churn")
	}
}

func TestComposeThreeWay(t *testing.T) {
	s, err := Compose(Burst, NodeFailure, Elastic)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "burst+node-failure+elastic" {
		t.Errorf("Name = %q", s.Name)
	}
	if s.Arrival.Kind != ArrivalBurst {
		t.Errorf("arrival = %+v", s.Arrival)
	}
	if s.Capacity.FailMTBF != 300 {
		t.Errorf("failure process lost: %+v", s.Capacity)
	}
	if len(s.Capacity.Planned) == 0 {
		t.Error("planned elastic events lost")
	}
}

func TestComposeRejectsConflicts(t *testing.T) {
	cases := map[string][]string{
		"two arrival processes":  {Diurnal, Burst},
		"two failure processes":  {NodeFailure, NodeFailure},
		"two preempt processes":  {Spot, Spot},
		"two drain processes":    {MTBFDrain, MTBFDrain},
		"two planned timelines":  {Elastic, Elastic},
		"two rackdrain bearers":  {RackDrain, MTBFDrain},
		"planned rackdrain pair": {RackDrain, RackDrain},
	}
	for why, names := range cases {
		if _, err := Compose(names...); !errors.Is(err, ErrIncompatible) {
			t.Errorf("%s (%v): err = %v, want ErrIncompatible", why, names, err)
		}
	}
}

// Two capacity-bearing specs whose removal kinds cross-talk must be
// rejected with a message that says why, not silently merged with one
// timeline shadowing (or restocking) the other's losses.
func TestComposeCapacityCrossTalkMessage(t *testing.T) {
	_, err := Compose(RackDrain, MTBFDrain)
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("err = %v, want ErrIncompatible", err)
	}
	msg := err.Error()
	for _, want := range []string{"rack-drain", "mtbf-drain", "rackdrain", "cross-talk"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// Capacity-bearing specs with disjoint removal kinds still merge: an
// elastic planned schedule (leave) composes with spot preemptions
// (preempt), node failures (fail), and stochastic rack drains
// (rackdrain) all at once.
func TestComposeDisjointCapacityBearers(t *testing.T) {
	s, err := Compose(Elastic, Spot, NodeFailure, MTBFDrain)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Capacity.Planned) == 0 {
		t.Error("elastic planned events lost")
	}
	if s.Capacity.PreemptMTBF != 400 || s.Capacity.FailMTBF != 300 {
		t.Errorf("stochastic processes lost: %+v", s.Capacity)
	}
	if s.Capacity.DrainMTBF != 1200 || s.Capacity.DrainRestock != 900 {
		t.Errorf("drain process lost: %+v", s.Capacity)
	}
	if _, err := Compose(Diurnal, MTBFDrain); err != nil {
		t.Errorf("diurnal+mtbf-drain should compose: %v", err)
	}
}

func TestComposeUnknownPart(t *testing.T) {
	_, err := Compose(Diurnal, "bogus")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
	if _, err := Compose(); !errors.Is(err, ErrIncompatible) {
		t.Errorf("empty Compose: %v", err)
	}
	if _, err := Compose(Diurnal, " "); !errors.Is(err, ErrIncompatible) {
		t.Errorf("blank part: %v", err)
	}
}

func TestGetParsesComposedNames(t *testing.T) {
	s, err := Get("diurnal+spot")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "diurnal+spot" || s.Arrival.Kind != ArrivalDiurnal || s.Capacity.PreemptMTBF != 400 {
		t.Errorf("Get composed the wrong spec: %+v", s)
	}
	// Composition is deterministic: same name, same value.
	again, err := Get("diurnal+spot")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arrival != again.Arrival || s.Capacity.PreemptMTBF != again.Capacity.PreemptMTBF {
		t.Error("repeated Get of a composed name differs")
	}
	if _, err := Get("diurnal+bogus"); !errors.Is(err, ErrUnknown) {
		t.Errorf("Get with unknown part: %v", err)
	}
	if _, err := Get("diurnal+burst"); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Get with incompatible parts: %v", err)
	}
}
