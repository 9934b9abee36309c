package zones

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mrdb/internal/simnet"
)

// topo builds n regions × z zones × k nodes per zone. IDs start at 1.
func topo(nRegions, zonesPer, nodesPerZone int) *simnet.Topology {
	t := simnet.NewTopology()
	id := simnet.NodeID(1)
	for r := 0; r < nRegions; r++ {
		region := simnet.Region(fmt.Sprintf("region-%d", r))
		for z := 0; z < zonesPer; z++ {
			zone := simnet.Zone(fmt.Sprintf("region-%d-%c", r, 'a'+z))
			for n := 0; n < nodesPerZone; n++ {
				t.AddNode(id, simnet.Locality{Region: region, Zone: zone})
				id++
			}
		}
	}
	return t
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumReplicas: 0, NumVoters: 0},
		{NumReplicas: 3, NumVoters: 0},
		{NumReplicas: 3, NumVoters: 5},
		{NumReplicas: 3, NumVoters: 3, Constraints: map[simnet.Region]int{"a": 2, "b": 2}},
		{NumReplicas: 5, NumVoters: 3, VoterConstraints: map[simnet.Region]int{"a": 4}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
	good := Config{NumReplicas: 5, NumVoters: 3,
		Constraints:      map[simnet.Region]int{"a": 1, "b": 1},
		VoterConstraints: map[simnet.Region]int{"a": 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAllocateZoneSurvivable(t *testing.T) {
	// Paper §3.3.2: ZONE survivability = 3 voters in home region spread
	// across zones + 1 non-voter in each other region.
	tp := topo(3, 3, 1)
	a := &Allocator{Topo: tp}
	cfg := Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{"region-0": 3},
		Constraints:      map[simnet.Region]int{"region-1": 1, "region-2": 1},
		LeasePreferences: []simnet.Region{"region-0"},
	}
	p, err := a.Allocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckPlacement(cfg, p); err != nil {
		t.Fatal(err)
	}
	// Voters all in region-0, distinct zones.
	zonesSeen := map[simnet.Zone]bool{}
	for _, v := range p.Voters {
		l, _ := tp.LocalityOf(v)
		if l.Region != "region-0" {
			t.Fatalf("voter %d in %s", v, l.Region)
		}
		if zonesSeen[l.Zone] {
			t.Fatalf("two voters share zone %s", l.Zone)
		}
		zonesSeen[l.Zone] = true
	}
	if len(p.NonVoters) != 2 {
		t.Fatalf("non-voters = %v", p.NonVoters)
	}
	lh, _ := tp.LocalityOf(p.Leaseholder)
	if lh.Region != "region-0" {
		t.Fatalf("leaseholder in %s", lh.Region)
	}
}

func TestAllocateRegionSurvivable(t *testing.T) {
	// Paper §3.3.3: REGION survivability with N=3 regions: 5 voters,
	// 2 in the home region, at least 1 replica per region.
	tp := topo(3, 3, 2)
	a := &Allocator{Topo: tp}
	cfg := Config{
		NumReplicas: 5, NumVoters: 5,
		VoterConstraints: map[simnet.Region]int{"region-0": 2},
		Constraints:      map[simnet.Region]int{"region-0": 2, "region-1": 1, "region-2": 1},
		LeasePreferences: []simnet.Region{"region-0"},
	}
	p, err := a.Allocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckPlacement(cfg, p); err != nil {
		t.Fatal(err)
	}
	perRegion := map[simnet.Region]int{}
	for _, v := range p.Voters {
		l, _ := tp.LocalityOf(v)
		perRegion[l.Region]++
	}
	if perRegion["region-0"] != 2 {
		t.Fatalf("home region voters = %d, want 2", perRegion["region-0"])
	}
	// No region holds a majority of the 5 voters.
	for r, n := range perRegion {
		if n > 2 {
			t.Fatalf("region %s holds %d of 5 voters: a region failure would lose quorum", r, n)
		}
	}
}

func TestAllocateInsufficientNodes(t *testing.T) {
	tp := topo(1, 1, 2)
	a := &Allocator{Topo: tp}
	_, err := a.Allocate(Config{NumReplicas: 3, NumVoters: 3})
	if err == nil {
		t.Fatal("expected failure with 2 nodes for 3 replicas")
	}
}

func TestDiversityPreference(t *testing.T) {
	// 1 region, 3 zones, 3 nodes per zone: 3 voters land in 3 zones.
	tp := topo(1, 3, 3)
	a := &Allocator{Topo: tp}
	p, err := a.Allocate(Config{NumReplicas: 3, NumVoters: 3})
	if err != nil {
		t.Fatal(err)
	}
	zonesSeen := map[simnet.Zone]bool{}
	for _, v := range p.Voters {
		l, _ := tp.LocalityOf(v)
		zonesSeen[l.Zone] = true
	}
	if len(zonesSeen) != 3 {
		t.Fatalf("voters span %d zones, want 3", len(zonesSeen))
	}
}

func TestLoadTieBreak(t *testing.T) {
	tp := topo(1, 1, 3) // one zone: diversity ties everywhere
	load := map[simnet.NodeID]int{1: 10, 2: 0, 3: 5}
	a := &Allocator{Topo: tp, Load: load}
	p, err := a.Allocate(Config{NumReplicas: 1, NumVoters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Voters[0] != 2 {
		t.Fatalf("picked node %d, want least-loaded node 2", p.Voters[0])
	}
}

func TestLeasePreferenceFallback(t *testing.T) {
	tp := topo(2, 3, 1)
	a := &Allocator{Topo: tp}
	// Preference names a region with no voters possible (all voters
	// constrained to region-0): falls back to first voter.
	cfg := Config{
		NumReplicas: 3, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{"region-0": 3},
		LeasePreferences: []simnet.Region{"region-1"},
	}
	p, err := a.Allocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := tp.LocalityOf(p.Leaseholder)
	if l.Region != "region-0" {
		t.Fatalf("leaseholder region %s", l.Region)
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{
		NumReplicas: 5, NumVoters: 3,
		Constraints:      map[simnet.Region]int{"us-east1": 1, "europe-west2": 1},
		VoterConstraints: map[simnet.Region]int{"us-east1": 3},
		LeasePreferences: []simnet.Region{"us-east1"},
	}
	s := cfg.String()
	for _, want := range []string{"num_replicas=5", "num_voters=3", "+region=us-east1:3", "lease_preferences=[[+region=us-east1]]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := Config{NumReplicas: 3, NumVoters: 3,
		Constraints:      map[simnet.Region]int{"a": 1},
		VoterConstraints: map[simnet.Region]int{"a": 1},
		LeasePreferences: []simnet.Region{"a"}}
	cl := cfg.Clone()
	cl.Constraints["b"] = 1
	cl.LeasePreferences[0] = "z"
	if _, ok := cfg.Constraints["b"]; ok {
		t.Fatal("clone shares constraint map")
	}
	if cfg.LeasePreferences[0] != "a" {
		t.Fatal("clone shares preference slice")
	}
}

// Property: any satisfiable random config yields a placement that passes
// CheckPlacement, never double-places a node, and respects counts.
func TestQuickAllocateSatisfies(t *testing.T) {
	tp := topo(4, 3, 2) // 24 nodes
	a := &Allocator{Topo: tp}
	f := func(voters, extra uint8, pin uint8) bool {
		nv := int(voters%5) + 1 // 1..5
		nr := nv + int(extra%4) // up to +3 non-voters
		cfg := Config{NumReplicas: nr, NumVoters: nv,
			Constraints:      map[simnet.Region]int{},
			VoterConstraints: map[simnet.Region]int{}}
		if pin%2 == 0 {
			cfg.VoterConstraints[simnet.Region(fmt.Sprintf("region-%d", pin%4))] = 1
		}
		p, err := a.Allocate(cfg)
		if err != nil {
			return false
		}
		return a.CheckPlacement(cfg, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckPlacementRejects pins each rule CheckPlacement enforces: the
// exact counts, then CheckPlacementDuring's, then a lease preference that
// some voter could satisfy.
func TestCheckPlacementRejects(t *testing.T) {
	a := &Allocator{Topo: topo(3, 3, 1)} // region-0: n1-n3, region-1: n4-n6, region-2: n7-n9
	cfg := Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{"region-0": 3},
		Constraints:      map[simnet.Region]int{"region-1": 1, "region-2": 1},
		LeasePreferences: []simnet.Region{"region-0"},
	}
	ids := func(v ...simnet.NodeID) []simnet.NodeID { return v }
	for _, c := range []struct {
		name string
		p    Placement
		want string // "" when the placement satisfies cfg
	}{
		{"satisfied", Placement{ids(1, 2, 3), ids(4, 7), 1}, ""},
		{"extra voter", Placement{ids(1, 2, 3, 4), ids(7), 1}, "4 voters, want 3"},
		{"extra replica", Placement{ids(1, 2, 3), ids(4, 7, 8), 1}, "6 replicas, want 5"},
		{"node twice", Placement{ids(1, 2, 3), ids(4, 1), 1}, "node 1 placed twice"},
		{"unknown node", Placement{ids(1, 2, 3), ids(4, 99), 1}, "node 99 not in topology"},
		{"constraint", Placement{ids(1, 2, 3), ids(4, 5), 1}, "region region-2 has 0 replicas"},
		{"voter constraint", Placement{ids(1, 2, 4), ids(3, 7), 1}, "region region-0 has 2 voters"},
		{"satisfiable preference", Placement{ids(1, 2, 3), ids(4, 7), 4}, "violates satisfiable preference"},
	} {
		err := a.CheckPlacement(cfg, c.p)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: CheckPlacement = %v, want %q", c.name, err, c.want)
		}
	}
	// A preference no voter can satisfy is not a violation.
	unsat := cfg.Clone()
	unsat.LeasePreferences = []simnet.Region{"region-1"}
	if err := a.CheckPlacement(unsat, Placement{ids(1, 2, 3), ids(4, 7), 1}); err != nil {
		t.Errorf("unsatisfiable preference: %v", err)
	}
}
