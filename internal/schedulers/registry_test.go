package schedulers

import (
	"errors"
	"strings"
	"testing"
)

func TestNewUnknownSchedulerListsKnownNames(t *testing.T) {
	_, err := New("no-such-policy", Config{})
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-policy"`) {
		t.Errorf("error does not name the missing scheduler: %v", err)
	}
	for _, known := range []string{"ones", "drl", "tiresias", "optimus", "fifo", "sjf"} {
		if !strings.Contains(msg, known) {
			t.Errorf("error does not list known scheduler %q: %v", known, err)
		}
	}
}

func TestRegistryBuildsEveryKnownName(t *testing.T) {
	for _, name := range Names() {
		if name == "" {
			t.Error("empty scheduler name")
		}
		s, err := New(name, Config{Seed: 1, ArrivalRate: 0.1, Population: 4})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if s == nil || s.Traits().Name == "" {
			t.Errorf("New(%q) built an unusable scheduler %v", name, s)
		}
	}
}

func TestNewWrapsTypedSentinel(t *testing.T) {
	_, err := New("no-such-policy", Config{})
	if !errors.Is(err, ErrUnknown) {
		t.Errorf("New error does not wrap ErrUnknown: %v", err)
	}
}

func TestRegistryConfigPlumbs(t *testing.T) {
	s, err := New("ones", Config{Seed: 3, ArrivalRate: 0.05, Population: 7, MutationRate: 0.25, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := s.(*ONES)
	if !ok {
		t.Fatalf("factory for \"ones\" built %T", s)
	}
	if o.PopulationSize != 7 || o.MutationRate != 0.25 || o.Parallelism != 2 {
		t.Errorf("config not plumbed: pop=%d θ=%v par=%d", o.PopulationSize, o.MutationRate, o.Parallelism)
	}
}
