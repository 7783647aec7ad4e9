package cluster

import (
	"testing"
)

func TestParseShape(t *testing.T) {
	topo, err := ParseShape("4x8,2x4")
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumServers() != 6 || topo.TotalGPUs() != 40 {
		t.Fatalf("4x8,2x4 = %d servers / %d GPUs, want 6/40", topo.NumServers(), topo.TotalGPUs())
	}
	for i := 0; i < 4; i++ {
		if topo.Servers[i] != (ServerSpec{GPUs: 8, Rack: 0}) {
			t.Errorf("server %d = %+v, want 8 GPUs rack 0", i, topo.Servers[i])
		}
	}
	for i := 4; i < 6; i++ {
		if topo.Servers[i] != (ServerSpec{GPUs: 4, Rack: 1}) {
			t.Errorf("server %d = %+v, want 4 GPUs rack 1", i, topo.Servers[i])
		}
	}
	if got := topo.Shape(); got != "4x8,2x4" {
		t.Errorf("Shape roundtrip = %q", got)
	}
	if got := topo.MaxServerGPUs(); got != 8 {
		t.Errorf("MaxServerGPUs = %d, want 8", got)
	}
	if _, ok := topo.Homogeneous(); ok {
		t.Error("mixed shape reported homogeneous")
	}
}

func TestParseShapeHomogeneousMatchesUniform(t *testing.T) {
	topo, err := ParseShape("16x4")
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Equal(Longhorn()) {
		t.Errorf("ParseShape(16x4) = %v, want the Longhorn testbed", topo)
	}
	if per, ok := topo.Homogeneous(); !ok || per != 4 {
		t.Errorf("Homogeneous = (%d, %v), want (4, true)", per, ok)
	}
}

// badShapes are shapes ParseShape must reject: malformed, non-positive,
// or over MaxGPUs (the last four; the final one overflows count × GPUs).
var badShapes = []string{"", "x", "4x", "x8", "0x4", "4x0", "-1x4", "4x8,", "4x8,,2x4", "axb", "4x8junk", "4x8x2",
	"2000000000x8", "1x65537", "65536x1,1x1", "9223372036854775807x2"}

func TestParseShapeErrors(t *testing.T) {
	for _, bad := range badShapes {
		if _, err := ParseShape(bad); err == nil {
			t.Errorf("ParseShape(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseShape checks ParseShape on arbitrary input: it never panics,
// an accepted shape holds between 1 and MaxGPUs GPUs, and its Shape
// rendering parses back to an Equal topology.
func FuzzParseShape(f *testing.F) {
	for _, shape := range append([]string{"4x8,2x4", "16x4", "4x8, 2x4", "65536x1"}, badShapes...) {
		f.Add(shape)
	}
	f.Fuzz(func(t *testing.T, shape string) {
		topo, err := ParseShape(shape)
		if err != nil {
			return
		}
		if n := topo.TotalGPUs(); n < 1 || n > MaxGPUs {
			t.Fatalf("ParseShape(%q) accepted %d GPUs, want 1 to %d", shape, n, MaxGPUs)
		}
		back, err := ParseShape(topo.Shape())
		if err != nil {
			t.Fatalf("ParseShape(%q).Shape() = %q does not parse: %v", shape, topo.Shape(), err)
		}
		if !back.Equal(topo) {
			t.Fatalf("ParseShape(%q) round trip through %q changed the topology", shape, topo.Shape())
		}
	})
}

func TestShapeOrderIsSignificant(t *testing.T) {
	a, _ := ParseShape("4x8,2x4")
	b, _ := ParseShape("2x4,4x8")
	if a.Equal(b) {
		t.Error("4x8,2x4 and 2x4,4x8 reported Equal — group order fixes the GPU axis")
	}
}

func TestServerRangeRagged(t *testing.T) {
	topo, _ := ParseShape("2x2,1x4") // GPU axis: [0 1][2 3][4 5 6 7]
	if lo, hi := topo.ServerRange(2); lo != 4 || hi != 8 {
		t.Errorf("ServerRange(2) = [%d,%d), want [4,8)", lo, hi)
	}
}

func TestRackHelpers(t *testing.T) {
	topo, _ := ParseShape("4x8,2x4")
	racks := topo.Racks()
	if len(racks) != 2 || racks[0] != 0 || racks[1] != 1 {
		t.Fatalf("Racks = %v, want [0 1]", racks)
	}
	if got := topo.RackServers(1); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("RackServers(1) = %v, want [4 5]", got)
	}
	if got := topo.RackServers(9); got != nil {
		t.Errorf("RackServers(absent) = %v, want nil", got)
	}
	sum := topo.RackSummary()
	if len(sum) != 2 || sum[0] != (RackCapacity{Rack: 0, Servers: 4, GPUs: 32}) ||
		sum[1] != (RackCapacity{Rack: 1, Servers: 2, GPUs: 8}) {
		t.Errorf("RackSummary = %+v", sum)
	}
	if got := topo.NextRack(); got != 2 {
		t.Errorf("NextRack = %d, want 2", got)
	}
}

func TestMinServersFor(t *testing.T) {
	homo := Uniform(4, 4)
	for c, want := range map[int]int{0: 1, 1: 1, 4: 1, 5: 2, 8: 2, 16: 4, 99: 4} {
		if got := homo.MinServersFor(c); got != want {
			t.Errorf("homogeneous MinServersFor(%d) = %d, want %d", c, got, want)
		}
	}
	mixed, _ := ParseShape("4x8,2x4")
	// Largest-first packing: 8, 16, ... so 9 GPUs need two 8-boxes.
	for c, want := range map[int]int{1: 1, 8: 1, 9: 2, 32: 4, 33: 5, 36: 5, 37: 6, 40: 6} {
		if got := mixed.MinServersFor(c); got != want {
			t.Errorf("mixed MinServersFor(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestRemoveLastServerOfRack(t *testing.T) {
	topo, _ := ParseShape("2x4,1x8") // rack 1 has exactly one server (index 2)
	s := NewSchedule(topo)
	s.SetSlot(8, 7, 16) // job 7 on the rack-1 server
	victims := s.RemoveServer(2)
	if len(victims) != 1 || victims[0] != 7 {
		t.Fatalf("victims = %v, want [7]", victims)
	}
	got := s.Topology()
	if racks := got.Racks(); len(racks) != 1 || racks[0] != 0 {
		t.Errorf("racks after removing rack 1's last server = %v, want [0]", racks)
	}
	if got.NumServers() != 2 || got.TotalGPUs() != 8 {
		t.Errorf("topology = %v", got)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	// The rack id stays free for a restock: re-adding the exact spec
	// brings rack 1 back.
	s.AddServerSpecs(ServerSpec{GPUs: 8, Rack: 1})
	if racks := s.Topology().Racks(); len(racks) != 2 || racks[1] != 1 {
		t.Errorf("racks after restock = %v, want [0 1]", racks)
	}
}

func TestAddServerSpecsDoesNotAliasSharedTopology(t *testing.T) {
	topo, _ := ParseShape("2x4,2x4")
	a := NewSchedule(topo)
	b := a.Clone() // shares the topology value (and its slice header)
	a.RemoveServer(3)
	a.AddServerSpecs(ServerSpec{GPUs: 2, Rack: 5})
	if !b.Topology().Equal(topo) {
		t.Errorf("mutating one schedule changed another's topology: %v", b.Topology())
	}
	if b.NumGPUs() != 16 {
		t.Errorf("clone slot count changed: %d", b.NumGPUs())
	}
}

func TestRaggedScheduleStringAndServersOf(t *testing.T) {
	topo, _ := ParseShape("1x2,1x3")
	s := NewSchedule(topo)
	s.SetSlot(0, 1, 8)
	s.SetSlot(2, 1, 8)
	s.SetSlot(3, 2, 4)
	if got, want := s.String(), "[1:8 -] [1:8 2:4 -]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := s.ServersOf(1); got != 2 {
		t.Errorf("ServersOf(1) = %d, want 2", got)
	}
	if got := s.ServersOf(2); got != 1 {
		t.Errorf("ServersOf(2) = %d, want 1", got)
	}
}
