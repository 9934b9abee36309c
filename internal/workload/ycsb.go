package workload

import (
	"fmt"
	"math/rand"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
)

// YCSBVariant selects the operation mix.
type YCSBVariant int8

// YCSB variants used in the paper.
const (
	// YCSBA is 50% reads / 50% updates (used in §7.1 and §7.3 with a
	// zipf distribution).
	YCSBA YCSBVariant = iota
	// YCSBB is 95% reads / 5% updates (used in §7.2 with uniform keys).
	YCSBB
	// YCSBD is 95% reads / 5% inserts (used in §7.2.2).
	YCSBD
)

func (v YCSBVariant) String() string {
	switch v {
	case YCSBA:
		return "ycsb-a"
	case YCSBB:
		return "ycsb-b"
	case YCSBD:
		return "ycsb-d"
	}
	return "ycsb-?"
}

const (
	// ycsbTable is the table Setup creates and every operation targets.
	ycsbTable = "usertable"
	// ycsbMaxStaleness bounds a read under StaleReads.
	ycsbMaxStaleness = 30 * sim.Second
)

// YCSBConfig parameterizes a YCSB run.
type YCSBConfig struct {
	Variant YCSBVariant
	// RecordCount is the number of preloaded keys.
	RecordCount int
	// Distribution: "zipfian" or "uniform" (the default).
	Distribution string
	// OpsPerClient is the closed-loop operation count per client.
	OpsPerClient int
	// ClientsPerRegion spawns this many clients at each region's gateway.
	ClientsPerRegion int
	// LocalityOfAccess is the probability (0..1) that an operation
	// targets a key homed in the client's region (REGIONAL BY ROW runs,
	// §7.2). Zero means keys are chosen over the whole keyspace.
	LocalityOfAccess float64
	// SharedRemoteKeys, when true, directs all remote accesses at one
	// shared contended block (§7.2.3); otherwise clients use disjoint
	// remote blocks.
	SharedRemoteKeys bool
	// StaleReads serves reads with bounded staleness (§5.3.2) instead of
	// fresh reads, at most ycsbMaxStaleness old.
	StaleReads bool
	// Rehoming enables auto-rehoming on the client sessions.
	Rehoming bool
	// DisableLOS turns off locality optimized search ("Unoptimized").
	DisableLOS bool
	// BaselineManual models the manually partitioned baseline (§7.2):
	// the application knows each key's region and adds it to every WHERE
	// clause, pinning the query to one partition.
	BaselineManual bool
	// SchemaSQL overrides the CREATE TABLE statement (e.g. for the
	// computed-region variant of §7.2.2).
	SchemaSQL string
	// SpannerCommitWait holds locks through commit wait instead of
	// releasing them concurrently (ablation of paper §6.2).
	SpannerCommitWait bool
	// DisableOnePC forces the two-phase commit path so writes leave
	// intents (ablations that study lock visibility).
	DisableOnePC bool
	// RegionPrefixedKeys prepends each key's home region to the key
	// itself, modeling applications whose primary keys determine
	// placement (the computed-region variant of §7.2.2).
	RegionPrefixedKeys bool
}

// YCSB drives the workload against a cluster.
type YCSB struct {
	Cfg     YCSBConfig
	Cluster *cluster.Cluster
	Catalog *sql.Catalog

	// Recorders per (region, op) pair.
	ReadLat  map[simnet.Region]*LatencyRecorder
	WriteLat map[simnet.Region]*LatencyRecorder

	table   *sql.Table
	nextKey int
	// insertedRegion remembers the home region of keys inserted during
	// the run (YCSB-D with region-prefixed keys).
	insertedRegion map[int]simnet.Region
	// keyTrace, when set, sees every key a client reads or updates, in the
	// order it chose them. Tests use it.
	keyTrace func(client string, key int)
}

// NewYCSB builds the workload harness over an existing cluster.
func NewYCSB(c *cluster.Cluster, catalog *sql.Catalog, cfg YCSBConfig) *YCSB {
	y := &YCSB{
		Cfg: cfg, Cluster: c, Catalog: catalog,
		ReadLat:        map[simnet.Region]*LatencyRecorder{},
		WriteLat:       map[simnet.Region]*LatencyRecorder{},
		insertedRegion: map[int]simnet.Region{},
	}
	for _, r := range c.Regions() {
		y.ReadLat[r] = NewLatencyRecorder(fmt.Sprintf("read/%s", r))
		y.WriteLat[r] = NewLatencyRecorder(fmt.Sprintf("write/%s", r))
	}
	return y
}

// newSession opens a session on the ycsb database at region's gateway, with
// the run's rehoming and locality-optimized-search settings.
func (y *YCSB) newSession(region simnet.Region) *sql.Session {
	s := sql.NewSession(y.Cluster, y.Catalog, y.Cluster.GatewayFor(region))
	s.Database = "ycsb"
	s.AutoRehoming = y.Cfg.Rehoming
	s.LocalityOptimizedSearch = !y.Cfg.DisableLOS
	return s
}

// SetupSchema creates the database and table with the given locality
// clause (e.g. "LOCALITY GLOBAL", "LOCALITY REGIONAL BY ROW").
func (y *YCSB) SetupSchema(p *sim.Proc, localityClause string) error {
	regions := y.Cluster.Regions()
	s := y.newSession(regions[0])
	create := fmt.Sprintf(`CREATE DATABASE ycsb PRIMARY REGION "%s"`, regions[0])
	if len(regions) > 1 {
		create += " REGIONS "
		for i, r := range regions[1:] {
			if i > 0 {
				create += ", "
			}
			create += fmt.Sprintf("%q", string(r))
		}
	}
	if _, err := s.Exec(p, create); err != nil {
		return err
	}
	stmt := y.Cfg.SchemaSQL
	if stmt == "" {
		stmt = fmt.Sprintf(
			`CREATE TABLE %s (ycsb_key STRING PRIMARY KEY, field0 STRING) %s`,
			ycsbTable, localityClause)
	}
	if _, err := s.Exec(p, stmt); err != nil {
		return err
	}
	t, ok := y.Catalog.Table("ycsb", ycsbTable)
	if !ok {
		return fmt.Errorf("ycsb: table missing after create")
	}
	y.table = t
	return nil
}

// keyName formats key i.
func keyName(i int) string { return fmt.Sprintf("user%09d", i) }

// keyString formats key i, optionally with its home region prefix.
func (y *YCSB) keyString(i int) string {
	if !y.Cfg.RegionPrefixedKeys {
		return keyName(i)
	}
	region, ok := y.insertedRegion[i]
	if !ok {
		region = y.regionOfKey(i)
	}
	return fmt.Sprintf("%s/%s", region, keyName(i))
}

// regionOfKey maps a key to its home region under the blocked layout:
// key space divided into equal consecutive blocks, one per region.
func (y *YCSB) regionOfKey(i int) simnet.Region {
	regions := y.Cluster.Regions()
	block := y.Cfg.RecordCount / len(regions)
	idx := i / block
	if idx >= len(regions) {
		idx = len(regions) - 1
	}
	return regions[idx]
}

// Load bulk-loads RecordCount rows at a past timestamp. REGIONAL BY ROW
// tables get keys homed per the blocked layout.
func (y *YCSB) Load(p *sim.Proc) error {
	s := y.newSession(y.Cluster.Regions()[0])
	ts := hlc.Timestamp{WallTime: 1} // before all measurement traffic
	for i := 0; i < y.Cfg.RecordCount; i++ {
		vals := map[string]sql.Datum{
			"ycsb_key": y.keyString(i),
			"field0":   fmt.Sprintf("v%09d", i),
		}
		if y.table.IsPartitioned() {
			vals[sql.RegionColumnName] = string(y.regionOfKey(i))
		}
		if err := s.BulkLoadRow(y.table, vals, ts); err != nil {
			return err
		}
	}
	y.nextKey = y.Cfg.RecordCount
	return nil
}

// chooseKey picks a key for a client in the given region.
func (y *YCSB) chooseKey(rng *rand.Rand, region simnet.Region, regionIdx, clientIdx int, chooser KeyChooser) int {
	if y.Cfg.LocalityOfAccess <= 0 {
		return chooser.Next(rng)
	}
	regions := y.Cluster.Regions()
	block := y.Cfg.RecordCount / len(regions)
	local := rng.Float64() < y.Cfg.LocalityOfAccess
	if local {
		// A key homed in this client's region.
		return regionIdx*block + chooser.Next(rng)%block
	}
	if y.Cfg.SharedRemoteKeys {
		// §7.2.3: all remote accesses share one contended block — the
		// first block of the next region over.
		remote := (regionIdx + 1) % len(regions)
		return remote*block + chooser.Next(rng)%(block/10+1)
	}
	// Disjoint remote keys per client (§7.2.1).
	remote := (regionIdx + 1 + clientIdx%(len(regions)-1)) % len(regions)
	span := block / (y.Cfg.ClientsPerRegion + 1)
	if span == 0 {
		span = 1
	}
	base := remote*block + (clientIdx%y.Cfg.ClientsPerRegion)*span
	return base + chooser.Next(rng)%span
}

// Run spawns clients in every region and waits for completion. Each client
// is a closed loop issuing OpsPerClient operations.
func (y *YCSB) Run(p *sim.Proc) error {
	regions := y.Cluster.Regions()
	wg := sim.NewWaitGroup(y.Cluster.Sim)
	var firstErr error
	for ri, region := range regions {
		for ci := 0; ci < y.Cfg.ClientsPerRegion; ci++ {
			ri, ci, region := ri, ci, region
			wg.Add(1)
			y.Cluster.Sim.Spawn(fmt.Sprintf("ycsb/%s/%d", region, ci), func(cp *sim.Proc) {
				defer wg.Done()
				if err := y.client(cp, region, ri, ci); err != nil && firstErr == nil {
					firstErr = err
				}
			})
		}
	}
	wg.Wait(p)
	return firstErr
}

// clientStream returns the random stream of one workload client, named
// workload/<kind>/<region>/<client>. It is the client's only source of
// randomness, so the client's operations depend on the run seed alone.
func clientStream(c *cluster.Cluster, kind string, region simnet.Region, client int) *rand.Rand {
	return c.Sim.Stream(fmt.Sprintf("workload/%s/%s/%d", kind, region, client))
}

func (y *YCSB) client(p *sim.Proc, region simnet.Region, regionIdx, clientIdx int) error {
	// Each client gets its own session (so rehoming uses its gateway)
	// but clients in a region share the gateway node.
	s := y.newSession(region)
	ops := y.prepare(s)
	s.Coord.SpannerCommitWait = y.Cfg.SpannerCommitWait
	s.DisableOnePC = y.Cfg.DisableOnePC
	// The manually partitioned baseline cannot enforce global uniqueness
	// at all (paper Fig. 1b): the partition column is part of its keys,
	// so per-partition checks suffice and no cross-region probes happen.
	s.UniquenessChecks = !y.Cfg.BaselineManual
	rng := clientStream(y.Cluster, "ycsb", region, clientIdx)

	var chooser KeyChooser
	switch y.Cfg.Distribution {
	case "uniform", "":
		chooser = UniformChooser{N: y.Cfg.RecordCount}
	case "zipfian":
		chooser = NewZipfChooser(y.Cfg.RecordCount, rng)
	default:
		return fmt.Errorf("ycsb: unknown distribution %q", y.Cfg.Distribution)
	}

	var writeFrac float64
	isInsert := false
	switch y.Cfg.Variant {
	case YCSBA:
		writeFrac = 0.5
	case YCSBB:
		writeFrac = 0.05
	case YCSBD:
		writeFrac = 0.05
		isInsert = true
	}

	readRec := y.ReadLat[region]
	writeRec := y.WriteLat[region]
	for op := 0; op < y.Cfg.OpsPerClient; op++ {
		isWrite := rng.Float64() < writeFrac
		k := -1
		if !isWrite || !isInsert {
			k = y.chooseKey(rng, region, regionIdx, clientIdx, chooser)
			if y.keyTrace != nil {
				y.keyTrace(fmt.Sprintf("%s/%d", region, clientIdx), k)
			}
		}
		start := p.Now()
		var err error
		switch {
		case isWrite && isInsert:
			err = y.doInsert(p, ops, region)
		case isWrite:
			err = y.doUpdate(p, ops, k, op)
		default:
			err = y.doRead(p, ops, k)
		}
		lat := p.Now().Sub(start)
		if isWrite {
			if err != nil {
				writeRec.RecordError()
			} else {
				writeRec.Record(lat)
			}
		} else {
			if err != nil {
				readRec.RecordError()
			} else {
				readRec.Record(lat)
			}
		}
	}
	return nil
}

// ycsbOps are one session's prepared operations.
type ycsbOps struct {
	s                    *sql.Session
	read, update, insert *sql.Prepared
}

// prepare prepares the operations on s. The manual baseline adds the key's
// region to every WHERE clause, pinning the query to one partition (§7.2).
// On a table that is not REGIONAL BY ROW an update is a blind write, as the
// CockroachDB YCSB harness issues: no read set, so contended writers bump
// past each other (write-too-old) instead of serializing on refresh
// restarts.
func (y *YCSB) prepare(s *sql.Session) ycsbOps {
	readPin, updatePin := "", ""
	if y.pinned() {
		readPin, updatePin = " AND crdb_region = $2", " AND crdb_region = $3"
	}
	asOf := ""
	if y.Cfg.StaleReads {
		asOf = fmt.Sprintf(" AS OF SYSTEM TIME with_max_staleness('%s')", ycsbMaxStaleness)
	}
	update := `UPDATE ` + ycsbTable + ` SET field0 = $2 WHERE ycsb_key = $1` + updatePin
	if !y.table.IsPartitioned() {
		update = `UPSERT INTO ` + ycsbTable + ` (ycsb_key, field0) VALUES ($1, $2)`
	}
	return ycsbOps{
		s:      s,
		read:   s.MustPrepare(`SELECT * FROM ` + ycsbTable + asOf + ` WHERE ycsb_key = $1` + readPin),
		update: s.MustPrepare(update),
		insert: s.MustPrepare(`INSERT INTO ` + ycsbTable + ` (ycsb_key, field0) VALUES ($1, $2)`),
	}
}

// pinned reports whether the operations name their key's region.
func (y *YCSB) pinned() bool { return y.Cfg.BaselineManual && y.table.IsPartitioned() }

func (y *YCSB) doRead(p *sim.Proc, ops ycsbOps, key int) error {
	var res *sql.Result
	var err error
	if y.pinned() {
		res, err = ops.s.ExecPrepared(p, ops.read, y.keyString(key), string(y.regionOfKey(key)))
	} else {
		res, err = ops.s.ExecPrepared(p, ops.read, y.keyString(key))
	}
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 && !y.Cfg.StaleReads {
		return fmt.Errorf("ycsb: key %d missing", key)
	}
	return nil
}

func (y *YCSB) doUpdate(p *sim.Proc, ops ycsbOps, key, op int) error {
	var err error
	if y.pinned() {
		_, err = ops.s.ExecPrepared(p, ops.update, y.keyString(key), fmt.Sprintf("u%d", op), string(y.regionOfKey(key)))
	} else {
		_, err = ops.s.ExecPrepared(p, ops.update, y.keyString(key), fmt.Sprintf("u%d", op))
	}
	return err
}

func (y *YCSB) doInsert(p *sim.Proc, ops ycsbOps, region simnet.Region) error {
	y.nextKey++
	k := y.nextKey
	if y.Cfg.RegionPrefixedKeys {
		// The inserting client homes the key in its own region.
		y.insertedRegion[k] = region
	}
	_, err := ops.s.ExecPrepared(p, ops.insert, y.keyString(k), fmt.Sprintf("i%d", k))
	return err
}

// AllReads merges the per-region read recorders.
func (y *YCSB) AllReads() *LatencyRecorder {
	out := NewLatencyRecorder("read/all")
	for _, r := range y.Cluster.Regions() {
		rec := y.ReadLat[r]
		out.samples = append(out.samples, rec.samples...)
		out.Errors += rec.Errors
	}
	return out
}

// AllWrites merges the per-region write recorders.
func (y *YCSB) AllWrites() *LatencyRecorder {
	out := NewLatencyRecorder("write/all")
	for _, r := range y.Cluster.Regions() {
		rec := y.WriteLat[r]
		out.samples = append(out.samples, rec.samples...)
		out.Errors += rec.Errors
	}
	return out
}
