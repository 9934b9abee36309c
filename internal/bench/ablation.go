package bench

import (
	"fmt"
	"io"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
	"mrdb/internal/workload"
	"mrdb/internal/zones"
)

// AblationCommitWait compares the paper's commit-wait-concurrent-with-lock-
// release design (§6.2) against Spanner-style lock holding through the
// wait. The difference shows up in the *reader* tail on contended GLOBAL
// keys: with Spanner-style waiting, a reader can block on locks for the
// whole commit wait (~lead time), instead of only max_clock_offset.
func AblationCommitWait(w io.Writer, scale Scale) error {
	header(w, "Ablation: commit wait concurrent with lock release (paper) vs holding locks (Spanner-style)")
	for i, spanner := range []bool{false, true} {
		c := paperCluster(700+int64(i), 250*sim.Millisecond, false)
		catalog := sql.NewCatalog()
		y := workload.NewYCSB(c, catalog, workload.YCSBConfig{
			Variant:           workload.YCSBA,
			RecordCount:       scale.RecordCount / 4, // extra contention
			Distribution:      "zipfian",
			OpsPerClient:      scale.OpsPerClient,
			ClientsPerRegion:  scale.ClientsPerRegion,
			SpannerCommitWait: spanner,
			// Force the intent-writing path: the ablation is about how
			// long locks stay visible to readers.
			DisableOnePC: true,
		})
		err := runSim(c, 12*3600*sim.Second, func(p *sim.Proc) error {
			if err := y.SetupSchema(p, "LOCALITY GLOBAL"); err != nil {
				return err
			}
			p.Sleep(2 * sim.Second)
			if err := y.Load(p); err != nil {
				return err
			}
			p.Sleep(2 * sim.Second)
			return y.Run(p)
		})
		if err != nil {
			return err
		}
		name := "concurrent release (paper)"
		if spanner {
			name = "hold locks through wait (Spanner)"
		}
		cdfRows(w, name+" [read]", y.AllReads())
		cdfRows(w, name+" [write]", y.AllWrites())
	}
	fmt.Fprintln(w, `
Expected: both variants stay bounded — the deeper reason global reads are
fast is that future-time intents sit above every present-time reader's
uncertainty window until the final max_clock_offset slice of the writer's
commit wait. Releasing locks concurrently (the paper's design) trims the
extreme read tail in that window; holding them through the wait
(Spanner-style) lengthens it, and the gap widens with contention and with
larger max_clock_offset.`)
	return nil
}

// AblationNonVoters compares the paper's non-voting replicas (§5.2) against
// the alternative of making every remote replica a voter: read coverage is
// identical, but quorums now span regions and write latency explodes.
func AblationNonVoters(w io.Writer, scale Scale) error {
	header(w, "Ablation: non-voting replicas (paper §5.2) vs voters everywhere")
	type variant struct {
		name string
		cfg  zones.Config
	}
	variants := []variant{
		{
			"3 voters home + 4 non-voters", // paper ZONE-survivable layout
			zones.Config{
				NumReplicas: 7, NumVoters: 3,
				VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
				Constraints: map[simnet.Region]int{
					simnet.USWest1: 1, simnet.EuropeW2: 1, simnet.AsiaNE1: 1, simnet.AustralSE1: 1,
				},
				LeasePreferences: []simnet.Region{simnet.USEast1},
			},
		},
		{
			"7 voters spread across regions",
			zones.Config{
				NumReplicas: 7, NumVoters: 7,
				VoterConstraints: map[simnet.Region]int{
					simnet.USEast1: 3, simnet.USWest1: 1, simnet.EuropeW2: 1, simnet.AsiaNE1: 1, simnet.AustralSE1: 1,
				},
				LeasePreferences: []simnet.Region{simnet.USEast1},
			},
		},
	}
	for i, v := range variants {
		c := paperCluster(720+int64(i), 250*sim.Millisecond, false)
		if _, err := c.CreateRangeWithZoneConfig([]byte("a/"), []byte("a0"), v.cfg, kv.ClosedTSLag); err != nil {
			return err
		}
		writes := workload.NewLatencyRecorder(v.name)
		stale := workload.NewLatencyRecorder(v.name + " stale reads")
		err := runSim(c, 3600*sim.Second, func(p *sim.Proc) error {
			if err := c.Admin.WaitAllReady(p); err != nil {
				return err
			}
			p.Sleep(sim.Second)
			gw := c.GatewayFor(simnet.USEast1)
			co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
			for i := 0; i < scale.OpsPerClient; i++ {
				key := mvcc.Key(fmt.Sprintf("a/key-%04d", i%50))
				start := p.Now()
				if err := co.Run(p, func(tx *txn.Txn) error {
					return tx.Put(p, key, mvcc.Value(fmt.Sprintf("v%d", i)))
				}); err != nil {
					return err
				}
				writes.Record(p.Now().Sub(start))
			}
			// Remote stale reads work identically in both layouts.
			p.Sleep(4 * sim.Second)
			remote := txn.NewCoordinator(c.Stores[c.GatewayFor(simnet.AustralSE1)], c.Senders[c.GatewayFor(simnet.AustralSE1)])
			for i := 0; i < scale.OpsPerClient/2; i++ {
				key := mvcc.Key(fmt.Sprintf("a/key-%04d", i%50))
				start := p.Now()
				if _, _, err := remote.ExactStaleRead(p, key, remote.Store.Clock.Now().Add(-4*sim.Second)); err != nil {
					return err
				}
				stale.Record(p.Now().Sub(start))
			}
			return nil
		})
		if err != nil {
			return err
		}
		boxRow(w, v.name+" [write from home]", writes)
		boxRow(w, v.name+" [stale read from australia]", stale)
	}
	fmt.Fprintln(w, `
Expected: with non-voters, home-region writes commit at intra-region quorum
latency (~2ms); with 7 voters the quorum (4 of 7) must reach other regions
and writes pay a WAN round trip — while stale-read coverage is identical.`)
	return nil
}

// AblationSurvivability measures the write-latency price of REGION
// survivability (§3.3.3) vs ZONE survivability (§3.3.2) — the paper's
// "write latency is increased by at least the round-trip time to the
// nearest region" claim.
func AblationSurvivability(w io.Writer, scale Scale) error {
	header(w, "Ablation: ZONE vs REGION survivability write latency (§2.2)")
	type variant struct {
		name string
		cfg  zones.Config
	}
	variants := []variant{
		{
			"SURVIVE ZONE FAILURE (3 voters home)",
			zones.Config{
				NumReplicas: 5, NumVoters: 3,
				VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
				Constraints:      map[simnet.Region]int{simnet.USWest1: 1, simnet.EuropeW2: 1},
				LeasePreferences: []simnet.Region{simnet.USEast1},
			},
		},
		{
			"SURVIVE REGION FAILURE (5 voters, 2 home)",
			zones.Config{
				NumReplicas: 5, NumVoters: 5,
				VoterConstraints: map[simnet.Region]int{simnet.USEast1: 2, simnet.USWest1: 2, simnet.EuropeW2: 1},
				LeasePreferences: []simnet.Region{simnet.USEast1},
			},
		},
	}
	for i, v := range variants {
		c := threeRegionClusterUS(740 + int64(i))
		if _, err := c.CreateRangeWithZoneConfig([]byte("s/"), []byte("s0"), v.cfg, kv.ClosedTSLag); err != nil {
			return err
		}
		writes := workload.NewLatencyRecorder(v.name)
		err := runSim(c, 3600*sim.Second, func(p *sim.Proc) error {
			if err := c.Admin.WaitAllReady(p); err != nil {
				return err
			}
			p.Sleep(sim.Second)
			gw := c.GatewayFor(simnet.USEast1)
			co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
			for i := 0; i < scale.OpsPerClient; i++ {
				start := p.Now()
				if err := co.Run(p, func(tx *txn.Txn) error {
					return tx.Put(p, mvcc.Key(fmt.Sprintf("s/k%04d", i%100)), mvcc.Value("v"))
				}); err != nil {
					return err
				}
				writes.Record(p.Now().Sub(start))
			}
			return nil
		})
		if err != nil {
			return err
		}
		boxRow(w, v.name, writes)
	}
	fmt.Fprintln(w, `
Expected: ZONE survivability commits within the home region (~2-5ms);
REGION survivability needs a cross-region quorum, adding at least the RTT
to the nearest region (us-east1 <-> us-west1 = 63ms).`)
	return nil
}
