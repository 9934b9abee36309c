package sql

import (
	"fmt"
	"testing"

	"mrdb/internal/core"
	"mrdb/internal/kv"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// TestSpanPlacement pins the one derivation of a span's zone config and
// closed-timestamp policy for each locality (§3.3).
func TestSpanPlacement(t *testing.T) {
	db := core.NewDatabase("movr", simnet.USEast1, simnet.USWest1, simnet.EuropeW2)
	primary := &Index{ID: PrimaryIndexID}
	place := func(tbl *Table, idx *Index, region simnet.Region) (zones.Config, kv.ClosedTSPolicy) {
		t.Helper()
		cfg, policy, err := spanPlacement(db, tbl, idx, region)
		if err != nil {
			t.Fatal(err)
		}
		return cfg, policy
	}

	// REGIONAL BY TABLE defaults to the primary region.
	cfg, policy := place(&Table{Locality: core.RegionalByTable}, primary, "")
	if policy != kv.ClosedTSLag {
		t.Fatalf("RBT policy %v, want LAG", policy)
	}
	if cfg.LeasePreferences[0] != simnet.USEast1 || cfg.VoterConstraints[simnet.USEast1] != 3 {
		t.Fatalf("RBT not homed in primary: %v", cfg)
	}

	// REGIONAL BY TABLE IN another region.
	cfg, _ = place(&Table{Locality: core.RegionalByTable, HomeRegion: simnet.EuropeW2}, primary, "")
	if cfg.LeasePreferences[0] != simnet.EuropeW2 {
		t.Fatalf("RBT IN region ignored: %v", cfg)
	}

	// REGIONAL BY ROW: one partition per region, its voters homed there.
	rbr := &Table{Locality: core.RegionalByRow}
	parts := partitionsOf(rbr, db)
	if len(parts) != 3 {
		t.Fatalf("RBR partitions = %d, want 3", len(parts))
	}
	for _, r := range parts {
		cfg, policy := place(rbr, primary, r)
		if policy != kv.ClosedTSLag || cfg.VoterConstraints[r] != 3 {
			t.Fatalf("partition %s: %v %v, want LAG with voters homed there", r, policy, cfg)
		}
	}

	// GLOBAL: LEAD policy, homed in primary.
	cfg, policy = place(&Table{Locality: core.Global}, primary, "")
	if policy != kv.ClosedTSLead {
		t.Fatal("GLOBAL table not using LEAD closed-timestamp policy")
	}
	if cfg.LeasePreferences[0] != simnet.USEast1 {
		t.Fatalf("GLOBAL not homed in primary: %v", cfg)
	}

	// The duplicate-indexes baseline homes each index where it is pinned.
	cfg, _ = place(&Table{DuplicateIndexes: true}, &Index{PinnedRegion: simnet.USWest1}, "")
	if cfg.LeasePreferences[0] != simnet.USWest1 || cfg.VoterConstraints[simnet.USWest1] != 3 {
		t.Fatalf("duplicate index not homed where pinned: %v", cfg)
	}
}

// TestReconfigureMatchesCreate: after every reconfiguring ALTER DATABASE,
// each range of a table of every locality is registered under the zone
// config, and carries the closed-timestamp policy, that a table created
// afresh under the new database settings gets.
func TestReconfigureMatchesCreate(t *testing.T) {
	tables := []struct{ name, ddl string }{
		{"rbt", `(k INT PRIMARY KEY, v STRING UNIQUE)`},
		{"rbt_in", `(k INT PRIMARY KEY, v STRING) LOCALITY REGIONAL BY TABLE IN "europe-west2"`},
		{"rbr", `(k INT PRIMARY KEY, v STRING UNIQUE) LOCALITY REGIONAL BY ROW`},
		{"glob", `(k INT PRIMARY KEY, v STRING) LOCALITY GLOBAL`},
		{"dup", `(k INT PRIMARY KEY, v STRING) WITH DUPLICATE INDEXES`},
	}
	alters := []string{
		`ADD REGION "asia-northeast1"`,
		`SURVIVE REGION FAILURE`,
		`SURVIVE ZONE FAILURE`,
		`PLACEMENT RESTRICTED`,
		`PLACEMENT DEFAULT`,
		`SET PRIMARY REGION "europe-west2"`,
		`DROP REGION "asia-northeast1"`,
	}
	h := newSQLHarness(33)
	compared := 0
	h.run(t, func(p *sim.Proc) {
		s := h.sessions[simnet.USEast1]
		mustExec(t, p, s, `CREATE DATABASE mr PRIMARY REGION "us-east1" REGIONS "europe-west2"`)
		for _, tb := range tables {
			mustExec(t, p, s, "CREATE TABLE "+tb.name+" "+tb.ddl)
		}
		for _, alter := range alters {
			mustExec(t, p, s, "ALTER DATABASE mr "+alter)
			for _, tb := range tables {
				fresh := tb.name + "_fresh"
				mustExec(t, p, s, "CREATE TABLE "+fresh+" "+tb.ddl)
				want := h.placements(t, "mr", fresh)
				for span, got := range h.placements(t, "mr", tb.name) {
					if got != want[span] {
						t.Errorf("after %s: %s %s is %q, created afresh %q", alter, tb.name, span, got, want[span])
					}
					compared++
				}
				mustExec(t, p, s, "DROP TABLE "+fresh)
			}
		}
	})
	// 12 ranges (rbt 2, rbt_in 1, rbr 2 indexes x 3 partitions, glob 1,
	// dup 2) after each ALTER but the last, which leaves rbr 2 partitions.
	if want := 12*(len(alters)-1) + 10; compared != want {
		t.Fatalf("compared %d ranges, want %d", compared, want)
	}
}

// placements maps every range of a table to its descriptor's policy and its
// registered zone config, keyed by what homes the span: a duplicate index's
// pinned region, else the index and partition.
func (h *sqlHarness) placements(t *testing.T, dbName, name string) map[string]string {
	t.Helper()
	tbl, _ := h.catalog.Table(dbName, name)
	db, _ := h.catalog.Database(dbName)
	out := map[string]string{}
	for _, idx := range tbl.Indexes {
		for _, region := range partitionsOf(tbl, db) {
			start, _ := IndexSpan(tbl, idx.ID, region)
			desc, err := h.c.Catalog.Lookup(start)
			if err != nil {
				t.Fatal(err)
			}
			cfg, ok := h.c.Catalog.ZoneConfig(desc.RangeID)
			if !ok {
				t.Fatalf("%s r%d has no zone config", name, desc.RangeID)
			}
			span := fmt.Sprintf("index %d partition %q", idx.ID, region)
			if idx.PinnedRegion != "" {
				span = "index pinned to " + string(idx.PinnedRegion)
			}
			out[span] = fmt.Sprintf("%v %v", desc.Policy, cfg)
		}
	}
	return out
}
