// Package core implements the paper's primary contribution: the
// multi-region abstractions of CockroachDB — database regions, survivability
// goals, and table localities (paper §2) — and their automatic translation
// into zone configurations (§3.3). Higher layers (SQL) declare intent with
// these types; this package turns intent into replica placement policy.
package core

import (
	"fmt"
	"sort"

	"mrdb/internal/simnet"
	"mrdb/internal/zones"
)

// SurvivalGoal is the class of failure a database must tolerate without
// losing availability (paper §2.2).
type SurvivalGoal int8

const (
	// SurviveZone tolerates the loss of one availability zone; it is the
	// default and keeps write quorums region-local.
	SurviveZone SurvivalGoal = iota
	// SurviveRegion tolerates the loss of an entire region at the cost
	// of cross-region write latency.
	SurviveRegion
)

func (g SurvivalGoal) String() string {
	if g == SurviveRegion {
		return "REGION"
	}
	return "ZONE"
}

// TableLocality is the expected access pattern of a table (paper §2.3).
type TableLocality int8

const (
	// RegionalByTable optimizes all rows for one home region.
	RegionalByTable TableLocality = iota
	// RegionalByRow optimizes each row for its own home region, chosen
	// by the hidden crdb_region column.
	RegionalByRow
	// Global optimizes for low-latency reads from every region at the
	// cost of slower writes (global transactions, §6).
	Global
)

func (l TableLocality) String() string {
	switch l {
	case RegionalByRow:
		return "REGIONAL BY ROW"
	case Global:
		return "GLOBAL"
	default:
		return "REGIONAL BY TABLE"
	}
}

// DataPlacement controls whether REGIONAL tables keep non-voting replicas
// in remote regions (paper §3.3.4).
type DataPlacement int8

const (
	// PlacementDefault places a (non-)voting replica in every region so
	// every region can serve stale reads.
	PlacementDefault DataPlacement = iota
	// PlacementRestricted keeps all replicas of REGIONAL tables in the
	// home region, for data domiciling (GDPR-style) requirements. Only
	// compatible with ZONE survivability; GLOBAL tables are unaffected.
	PlacementRestricted
)

func (p DataPlacement) String() string {
	if p == PlacementRestricted {
		return "RESTRICTED"
	}
	return "DEFAULT"
}

// RegionState tracks a region enum value's lifecycle; dropping a region
// marks it READ ONLY during validation (paper §2.4.1).
type RegionState int8

const (
	// RegionPublic values are fully usable.
	RegionPublic RegionState = iota
	// RegionReadOnly values may be read but no query can write them;
	// the transitional state while a DROP REGION validates.
	RegionReadOnly
)

// Database is the multi-region configuration of one database.
type Database struct {
	Name          string
	PrimaryRegion simnet.Region
	Survival      SurvivalGoal
	Placement     DataPlacement

	// regions is the crdb_internal_region enum: the source of truth for
	// which regions the database uses (paper §2.1).
	regions map[simnet.Region]RegionState
	// sorted memoizes Regions(); nil after any membership change. Callers
	// must not mutate the returned slice.
	sorted []simnet.Region
}

// NewDatabase creates a multi-region database with a primary region and
// optional additional regions (CREATE DATABASE ... PRIMARY REGION ...).
func NewDatabase(name string, primary simnet.Region, others ...simnet.Region) *Database {
	db := &Database{
		Name:          name,
		PrimaryRegion: primary,
		regions:       map[simnet.Region]RegionState{primary: RegionPublic},
	}
	for _, r := range others {
		db.regions[r] = RegionPublic
	}
	return db
}

// Regions returns the database's usable (public or read-only) regions,
// sorted for determinism.
func (db *Database) Regions() []simnet.Region {
	if db.sorted == nil {
		out := make([]simnet.Region, 0, len(db.regions))
		for r := range db.regions {
			out = append(out, r)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		db.sorted = out
	}
	return db.sorted
}

// HasRegion reports whether r is a usable region of the database.
func (db *Database) HasRegion(r simnet.Region) bool {
	_, ok := db.regions[r]
	return ok
}

// RegionState returns the lifecycle state of a region value.
func (db *Database) RegionState(r simnet.Region) (RegionState, bool) {
	s, ok := db.regions[r]
	return s, ok
}

// CanWriteRegion reports whether rows may be homed in r (false while r is
// READ ONLY during a drop, paper §2.4.1).
func (db *Database) CanWriteRegion(r simnet.Region) bool {
	return db.regions[r] == RegionPublic && db.HasRegion(r)
}

// AddRegion implements ALTER DATABASE ... ADD REGION.
func (db *Database) AddRegion(r simnet.Region) error {
	if db.HasRegion(r) {
		return fmt.Errorf("core: region %q already in database %q", r, db.Name)
	}
	db.regions[r] = RegionPublic
	db.sorted = nil
	return nil
}

// RegionRowValidator reports whether any REGIONAL BY ROW row is still homed
// in the given region; the SQL layer supplies it during DROP REGION
// validation. Because crdb_region is the partition prefix, this check scans
// only the region's partitions (paper footnote 2).
type RegionRowValidator func(r simnet.Region) (rowsExist bool, err error)

// DropRegion implements ALTER DATABASE ... DROP REGION with all-or-nothing
// semantics (paper §2.4.1): the region value is marked READ ONLY, the
// validator confirms no rows remain homed there, and only then is the value
// removed. Validation failure rolls the state back to PUBLIC.
func (db *Database) DropRegion(r simnet.Region, validate RegionRowValidator) error {
	if !db.HasRegion(r) {
		return fmt.Errorf("core: region %q not in database %q", r, db.Name)
	}
	if r == db.PrimaryRegion {
		return fmt.Errorf("core: cannot drop primary region %q", r)
	}
	if db.Survival == SurviveRegion && len(db.regions) <= 3 {
		return fmt.Errorf("core: dropping %q would leave fewer than 3 regions with REGION survivability", r)
	}
	// Mark READ ONLY so no new rows can be homed there while validating.
	db.regions[r] = RegionReadOnly
	if validate != nil {
		rowsExist, err := validate(r)
		if err != nil || rowsExist {
			db.regions[r] = RegionPublic // roll back
			if err != nil {
				return fmt.Errorf("core: drop region validation: %w", err)
			}
			return fmt.Errorf("core: region %q still has REGIONAL BY ROW rows", r)
		}
	}
	delete(db.regions, r)
	db.sorted = nil
	return nil
}

// SetSurvivalGoal implements ALTER DATABASE ... SURVIVE {ZONE|REGION}
// FAILURE.
func (db *Database) SetSurvivalGoal(g SurvivalGoal) error {
	if g == SurviveRegion {
		if len(db.regions) < 3 {
			return fmt.Errorf("core: REGION survivability requires at least 3 regions, have %d", len(db.regions))
		}
		if db.Placement == PlacementRestricted {
			return fmt.Errorf("core: REGION survivability is incompatible with PLACEMENT RESTRICTED")
		}
	}
	db.Survival = g
	return nil
}

// SetPlacement implements ALTER DATABASE ... PLACEMENT {DEFAULT|RESTRICTED}.
func (db *Database) SetPlacement(p DataPlacement) error {
	if p == PlacementRestricted && db.Survival == SurviveRegion {
		return fmt.Errorf("core: PLACEMENT RESTRICTED cannot be combined with REGION survivability")
	}
	db.Placement = p
	return nil
}

// --- Zone-config translation (paper §3.3) ---

// ZoneConfigForHome computes the zone configuration for a table or
// partition whose leaseholders live in home, under the database's
// survivability goal and placement policy. global marks GLOBAL tables,
// which ignore PLACEMENT RESTRICTED.
func (db *Database) ZoneConfigForHome(home simnet.Region, global bool) (zones.Config, error) {
	if !db.HasRegion(home) {
		return zones.Config{}, fmt.Errorf("core: %q is not a region of database %q", home, db.Name)
	}
	n := len(db.regions)
	switch db.Survival {
	case SurviveZone:
		// §3.3.2: 3 voters in the home region (spread across zones) and
		// one non-voter in each other region.
		cfg := zones.Config{
			NumVoters:        3,
			Constraints:      map[simnet.Region]int{},
			VoterConstraints: map[simnet.Region]int{home: 3},
			LeasePreferences: []simnet.Region{home},
		}
		if db.Placement == PlacementRestricted && !global {
			// §3.3.4: no replicas outside the home region.
			cfg.NumReplicas = 3
			cfg.Constraints[home] = 3
			return cfg, nil
		}
		cfg.NumReplicas = 3 + (n - 1)
		for r := range db.regions {
			if r == home {
				cfg.Constraints[r] = 3
			} else {
				cfg.Constraints[r] = 1
			}
		}
		return cfg, nil
	case SurviveRegion:
		// §3.3.3: 5 voters, 2 in the home region; at least one replica
		// per region so stale reads work everywhere; total replicas
		// max(2 + (N-1), num_voters).
		numVoters := 5
		numReplicas := 2 + (n - 1)
		if numReplicas < numVoters {
			numReplicas = numVoters
		}
		cfg := zones.Config{
			NumVoters:        numVoters,
			NumReplicas:      numReplicas,
			Constraints:      map[simnet.Region]int{},
			VoterConstraints: map[simnet.Region]int{home: 2},
			LeasePreferences: []simnet.Region{home},
		}
		cfg.Constraints[home] = 2
		for r := range db.regions {
			if r != home {
				cfg.Constraints[r] = 1
			}
		}
		return cfg, nil
	}
	return zones.Config{}, fmt.Errorf("core: unknown survival goal %v", db.Survival)
}
