package core

import (
	"fmt"
	"testing"

	"mrdb/internal/simnet"
)

func testDB(regions ...simnet.Region) *Database {
	return NewDatabase("movr", regions[0], regions[1:]...)
}

func TestDatabaseRegions(t *testing.T) {
	db := testDB(simnet.USEast1, simnet.USWest1, simnet.EuropeW2)
	if len(db.Regions()) != 3 {
		t.Fatalf("regions = %v", db.Regions())
	}
	if db.PrimaryRegion != simnet.USEast1 {
		t.Fatalf("primary = %v", db.PrimaryRegion)
	}
	if err := db.AddRegion(simnet.AsiaNE1); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRegion(simnet.AsiaNE1); err == nil {
		t.Fatal("duplicate add should fail")
	}
	if !db.HasRegion(simnet.AsiaNE1) {
		t.Fatal("added region missing")
	}
}

func TestDropRegionValidation(t *testing.T) {
	db := testDB(simnet.USEast1, simnet.USWest1, simnet.EuropeW2)

	// Dropping the primary region is forbidden.
	if err := db.DropRegion(simnet.USEast1, nil); err == nil {
		t.Fatal("dropped primary region")
	}

	// Validation failure rolls back to PUBLIC (all-or-nothing, §2.4.1).
	var sawReadOnly bool
	err := db.DropRegion(simnet.USWest1, func(r simnet.Region) (bool, error) {
		st, _ := db.RegionState(r)
		sawReadOnly = st == RegionReadOnly
		return true, nil // rows still exist
	})
	if err == nil {
		t.Fatal("drop succeeded despite remaining rows")
	}
	if !sawReadOnly {
		t.Fatal("region was not READ ONLY during validation")
	}
	if st, ok := db.RegionState(simnet.USWest1); !ok || st != RegionPublic {
		t.Fatalf("rollback state = %v, %v", st, ok)
	}
	if db.CanWriteRegion(simnet.USWest1) != true {
		t.Fatal("region not writable after rollback")
	}

	// Successful drop.
	if err := db.DropRegion(simnet.USWest1, func(simnet.Region) (bool, error) {
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if db.HasRegion(simnet.USWest1) {
		t.Fatal("region still present after drop")
	}
}

func TestReadOnlyRegionNotWritable(t *testing.T) {
	db := testDB(simnet.USEast1, simnet.USWest1)
	db.regions[simnet.USWest1] = RegionReadOnly
	if db.CanWriteRegion(simnet.USWest1) {
		t.Fatal("READ ONLY region is writable")
	}
	if !db.CanWriteRegion(simnet.USEast1) {
		t.Fatal("PUBLIC region not writable")
	}
}

func TestSurvivalGoalConstraints(t *testing.T) {
	db := testDB(simnet.USEast1, simnet.USWest1)
	if err := db.SetSurvivalGoal(SurviveRegion); err == nil {
		t.Fatal("REGION survivability allowed with 2 regions")
	}
	db.AddRegion(simnet.EuropeW2)
	if err := db.SetSurvivalGoal(SurviveRegion); err != nil {
		t.Fatal(err)
	}
	// PLACEMENT RESTRICTED is incompatible with REGION survivability.
	if err := db.SetPlacement(PlacementRestricted); err == nil {
		t.Fatal("RESTRICTED allowed with REGION survivability")
	}
	db.SetSurvivalGoal(SurviveZone)
	if err := db.SetPlacement(PlacementRestricted); err != nil {
		t.Fatal(err)
	}
	if err := db.SetSurvivalGoal(SurviveRegion); err == nil {
		t.Fatal("REGION survivability allowed with RESTRICTED placement")
	}
	// Dropping below 3 regions under REGION survivability is rejected.
	db.SetPlacement(PlacementDefault)
	db.SetSurvivalGoal(SurviveRegion)
	if err := db.DropRegion(simnet.USWest1, nil); err == nil {
		t.Fatal("drop below 3 regions allowed under REGION survivability")
	}
}

func TestZoneSurvivabilityConfig(t *testing.T) {
	// §3.3.2: N regions → 3 voters in home + (N-1) non-voters.
	db := testDB(simnet.USEast1, simnet.USWest1, simnet.EuropeW2, simnet.AsiaNE1)
	cfg, err := db.ZoneConfigForHome(simnet.USWest1, false)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumVoters != 3 || cfg.NumReplicas != 3+3 {
		t.Fatalf("voters=%d replicas=%d, want 3 and 6", cfg.NumVoters, cfg.NumReplicas)
	}
	if cfg.VoterConstraints[simnet.USWest1] != 3 {
		t.Fatalf("voter constraints %v", cfg.VoterConstraints)
	}
	for _, r := range db.Regions() {
		want := 1
		if r == simnet.USWest1 {
			want = 3
		}
		if cfg.Constraints[r] != want {
			t.Fatalf("constraints[%s] = %d, want %d", r, cfg.Constraints[r], want)
		}
	}
	if len(cfg.LeasePreferences) != 1 || cfg.LeasePreferences[0] != simnet.USWest1 {
		t.Fatalf("lease prefs %v", cfg.LeasePreferences)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionSurvivabilityConfig(t *testing.T) {
	// §3.3.3: 5 voters, 2 in home; max(2+(N-1), 5) replicas; ≥1/region.
	cases := []struct {
		regions      int
		wantReplicas int
	}{
		{3, 5}, {4, 5}, {5, 6}, {6, 7},
	}
	for _, c := range cases {
		var regions []simnet.Region
		for i := 0; i < c.regions; i++ {
			regions = append(regions, simnet.Region(fmt.Sprintf("region-%d", i)))
		}
		db := testDB(regions...)
		if err := db.SetSurvivalGoal(SurviveRegion); err != nil {
			t.Fatal(err)
		}
		cfg, err := db.ZoneConfigForHome(regions[0], false)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.NumVoters != 5 {
			t.Fatalf("%d regions: voters = %d", c.regions, cfg.NumVoters)
		}
		if cfg.NumReplicas != c.wantReplicas {
			t.Fatalf("%d regions: replicas = %d, want %d", c.regions, cfg.NumReplicas, c.wantReplicas)
		}
		if cfg.VoterConstraints[regions[0]] != 2 {
			t.Fatalf("home voters = %d, want 2", cfg.VoterConstraints[regions[0]])
		}
		for _, r := range regions {
			if cfg.Constraints[r] < 1 {
				t.Fatalf("region %s has no replica constraint", r)
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d regions: %v", c.regions, err)
		}
	}
}

func TestPlacementRestricted(t *testing.T) {
	db := testDB(simnet.USEast1, simnet.USWest1, simnet.EuropeW2)
	if err := db.SetPlacement(PlacementRestricted); err != nil {
		t.Fatal(err)
	}
	// Regional tables: all replicas in home.
	cfg, err := db.ZoneConfigForHome(simnet.USEast1, false)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumReplicas != 3 || cfg.Constraints[simnet.USEast1] != 3 {
		t.Fatalf("restricted config = %+v", cfg)
	}
	if len(cfg.Constraints) != 1 {
		t.Fatalf("restricted config places replicas outside home: %v", cfg.Constraints)
	}
	// GLOBAL tables are unaffected by RESTRICTED (§3.3.4).
	gcfg, err := db.ZoneConfigForHome(simnet.USEast1, true)
	if err != nil {
		t.Fatal(err)
	}
	if gcfg.NumReplicas != 3+2 {
		t.Fatalf("global table affected by RESTRICTED: %+v", gcfg)
	}
}

func TestZoneConfigUnknownHome(t *testing.T) {
	db := testDB(simnet.USEast1)
	if _, err := db.ZoneConfigForHome(simnet.AsiaNE1, false); err == nil {
		t.Fatal("config for non-member region succeeded")
	}
}

// TestTable2 verifies the DDL accounting reproduces paper Table 2 exactly.
func TestTable2(t *testing.T) {
	regions := []simnet.Region{simnet.USEast1, simnet.USWest1, simnet.EuropeW2}
	rows := Table2(regions)
	want := map[string][8]int{
		// newBefore, newAfter, convBefore, convAfter, addBefore,
		// addAfter, dropBefore, dropAfter
		"movr": {28, 12, 28, 14, 15, 1, 9, 1},
		"tpcc": {44, 18, 44, 20, 20, 1, 11, 1},
		"ycsb": {5, 1, 5, 1, 2, 1, 2, 1},
	}
	for _, row := range rows {
		w, ok := want[row.Workload]
		if !ok {
			t.Fatalf("unexpected workload %q", row.Workload)
		}
		got := [8]int{
			row.NewSchemaBefore, row.NewSchemaAfter,
			row.ConvertBefore, row.ConvertAfter,
			row.AddRegionBefore, row.AddRegionAfter,
			row.DropRegionBefore, row.DropRegionAfter,
		}
		if got != w {
			t.Errorf("%s: counts = %v, want %v", row.Workload, got, w)
		}
	}
}

func TestStringers(t *testing.T) {
	if SurviveZone.String() != "ZONE" || SurviveRegion.String() != "REGION" {
		t.Error("SurvivalGoal strings")
	}
	if Global.String() != "GLOBAL" || RegionalByRow.String() != "REGIONAL BY ROW" ||
		RegionalByTable.String() != "REGIONAL BY TABLE" {
		t.Error("locality strings")
	}
	if PlacementDefault.String() != "DEFAULT" || PlacementRestricted.String() != "RESTRICTED" {
		t.Error("placement strings")
	}
}
