package cluster

import (
	"errors"
	"fmt"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// testCluster builds the paper's 5-region topology with one REGIONAL-style
// range ("r/..", ZONE survivable, home us-east1) and one GLOBAL-style range
// ("g/..", LEAD policy, non-voters everywhere).
type testCluster struct {
	*Cluster
	regional *kv.RangeDescriptor
	global   *kv.RangeDescriptor
}

func newTestCluster(t *testing.T, seed int64, maxOffset sim.Duration) *testCluster {
	t.Helper()
	c := New(Config{
		Seed:      seed,
		Regions:   PaperRegions(),
		MaxOffset: maxOffset,
		Jitter:    0.02,
	})
	regionalCfg := zones.Config{
		NumReplicas: 3 + 4, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints: map[simnet.Region]int{
			simnet.USWest1: 1, simnet.EuropeW2: 1, simnet.AsiaNE1: 1, simnet.AustralSE1: 1,
		},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	globalCfg := regionalCfg.Clone()

	var err error
	tc := &testCluster{Cluster: c}
	tc.regional, err = c.CreateRangeWithZoneConfig([]byte("r/"), []byte("r0"), regionalCfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	tc.global, err = c.CreateRangeWithZoneConfig([]byte("g/"), []byte("g0"), globalCfg, kv.ClosedTSLead)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// run drives fn as the root test process and then checks invariants.
func (tc *testCluster) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	failed := false
	tc.Sim.Spawn("test", func(p *sim.Proc) {
		if err := tc.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			failed = true
			return
		}
		// Let closed timestamps propagate once everywhere.
		p.Sleep(500 * sim.Millisecond)
		fn(p)
	})
	tc.Sim.RunFor(10 * 60 * sim.Second)
	if failed {
		t.FailNow()
	}
	if n := tc.ApplyErrors(); n != 0 {
		t.Fatalf("%d command application errors", n)
	}
}

func (tc *testCluster) coord(region simnet.Region) *txn.Coordinator {
	gw := tc.GatewayFor(region)
	return txn.NewCoordinator(tc.Stores[gw], tc.Senders[gw])
}

func TestTxnWriteReadLocal(t *testing.T) {
	tc := newTestCluster(t, 1, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		co := tc.coord(simnet.USEast1)
		err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/a"), mvcc.Value("hello"))
		})
		if err != nil {
			t.Errorf("write txn: %v", err)
			return
		}
		var got mvcc.Value
		err = co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("r/a"))
			got = v
			return err
		})
		if err != nil || string(got) != "hello" {
			t.Errorf("read back %q, err=%v", got, err)
		}
	})
}

func TestRegionalLatencyProfile(t *testing.T) {
	tc := newTestCluster(t, 2, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		// Local (primary region) write+read: a few ms.
		local := tc.coord(simnet.USEast1)
		start := p.Now()
		if err := local.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/k1"), mvcc.Value("v"))
		}); err != nil {
			t.Error(err)
			return
		}
		localWrite := p.Now().Sub(start)
		if localWrite > 20*sim.Millisecond {
			t.Errorf("local regional write took %v, want < 20ms", localWrite)
		}

		start = p.Now()
		if err := local.Run(p, func(tx *txn.Txn) error {
			_, err := tx.Get(p, mvcc.Key("r/k1"))
			return err
		}); err != nil {
			t.Error(err)
			return
		}
		if d := p.Now().Sub(start); d > 10*sim.Millisecond {
			t.Errorf("local regional read took %v, want < 10ms", d)
		}

		// Remote (australia) fresh read must cross to us-east1:
		// RTT 198ms one round trip minimum.
		remote := tc.coord(simnet.AustralSE1)
		start = p.Now()
		if err := remote.Run(p, func(tx *txn.Txn) error {
			_, err := tx.Get(p, mvcc.Key("r/k1"))
			return err
		}); err != nil {
			t.Error(err)
			return
		}
		remoteRead := p.Now().Sub(start)
		if remoteRead < 150*sim.Millisecond || remoteRead > 450*sim.Millisecond {
			t.Errorf("remote regional read took %v, want ~200ms", remoteRead)
		}

		// Remote write: also about one RTT.
		start = p.Now()
		if err := remote.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/k2"), mvcc.Value("w"))
		}); err != nil {
			t.Error(err)
			return
		}
		remoteWrite := p.Now().Sub(start)
		if remoteWrite < 150*sim.Millisecond || remoteWrite > 700*sim.Millisecond {
			t.Errorf("remote regional write took %v, want ~200-400ms", remoteWrite)
		}
	})
}

func TestStaleReadServedLocally(t *testing.T) {
	tc := newTestCluster(t, 3, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		local := tc.coord(simnet.USEast1)
		if err := local.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/s1"), mvcc.Value("stale-me"))
		}); err != nil {
			t.Error(err)
			return
		}
		// Wait past the close lag so the value is below the closed ts.
		p.Sleep(4 * sim.Second)

		remote := tc.coord(simnet.AustralSE1)
		start := p.Now()
		val, served, err := remote.ExactStaleRead(p, mvcc.Key("r/s1"), remote.Store.Clock.Now().Add(-3500*sim.Millisecond))
		if err != nil {
			t.Errorf("stale read: %v", err)
			return
		}
		d := p.Now().Sub(start)
		if string(val) != "stale-me" {
			t.Errorf("stale read value %q", val)
		}
		loc, _ := tc.Topo.LocalityOf(served)
		if loc.Region != simnet.AustralSE1 {
			t.Errorf("stale read served by %v (n%d), want local replica", loc.Region, served)
		}
		if d > 5*sim.Millisecond {
			t.Errorf("stale read took %v, want local latency", d)
		}
	})
}

func TestBoundedStalenessRead(t *testing.T) {
	tc := newTestCluster(t, 4, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		local := tc.coord(simnet.USEast1)
		if err := local.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/b1"), mvcc.Value("bounded"))
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(4 * sim.Second)

		remote := tc.coord(simnet.AustralSE1)
		minTS := remote.MaxStalenessToMinTS(30 * sim.Second)
		start := p.Now()
		key := mvcc.Key("r/b1")
		ts, err := remote.BoundedStalenessTimestamp(p, [][2]mvcc.Key{{key, mvcc.Key("r/b1\x00")}}, minTS)
		if err != nil {
			t.Errorf("bounded staleness negotiation: %v", err)
			return
		}
		val, served, err := remote.ExactStaleRead(p, key, ts)
		if err != nil {
			t.Errorf("bounded stale read: %v", err)
			return
		}
		d := p.Now().Sub(start)
		if string(val) != "bounded" {
			t.Errorf("value %q", val)
		}
		if ts.Less(minTS) {
			t.Errorf("negotiated ts %v below bound %v", ts, minTS)
		}
		loc, _ := tc.Topo.LocalityOf(served)
		if loc.Region != simnet.AustralSE1 {
			t.Errorf("served by %v, want local", loc.Region)
		}
		if d > 10*sim.Millisecond {
			t.Errorf("bounded stale read took %v", d)
		}
	})
}

func TestGlobalTableFastReadsEverywhere(t *testing.T) {
	tc := newTestCluster(t, 5, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		local := tc.coord(simnet.USEast1)
		start := p.Now()
		if err := local.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("g/k"), mvcc.Value("global"))
		}); err != nil {
			t.Error(err)
			return
		}
		writeLat := p.Now().Sub(start)
		// Paper Fig 3: global writes 500-600ms at 250ms offset.
		if writeLat < 350*sim.Millisecond || writeLat > 800*sim.Millisecond {
			t.Errorf("global write took %v, want ~500-600ms", writeLat)
		}

		// Fresh reads from every region served locally (<5ms).
		for _, region := range tc.Regions() {
			co := tc.coord(region)
			start := p.Now()
			var got mvcc.Value
			if err := co.Run(p, func(tx *txn.Txn) error {
				v, err := tx.Get(p, mvcc.Key("g/k"))
				got = v
				return err
			}); err != nil {
				t.Errorf("%s: global read: %v", region, err)
				return
			}
			d := p.Now().Sub(start)
			if string(got) != "global" {
				t.Errorf("%s: read %q", region, got)
			}
			if d > 5*sim.Millisecond {
				t.Errorf("%s: fresh global read took %v, want < 5ms", region, d)
			}
		}
	})
}

func TestGlobalReadUncertaintyCommitWait(t *testing.T) {
	tc := newTestCluster(t, 6, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		writer := tc.coord(simnet.USEast1)
		reader := tc.coord(simnet.AsiaNE1)

		// Concurrent writer and reader on the same key: the reader that
		// starts right after the write commits observes the future-time
		// value through its uncertainty interval and must commit wait —
		// but the wait is bounded by max_clock_offset, not WAN RTT.
		done := sim.NewFuture[sim.Duration](tc.Sim)
		tc.Sim.Spawn("writer", func(wp *sim.Proc) {
			writer.Run(wp, func(tx *txn.Txn) error {
				return tx.Put(wp, mvcc.Key("g/cw"), mvcc.Value("v1"))
			})
			done.Set(0)
		})
		// Start reading mid-write: poll until the value is visible.
		var sawValue bool
		var maxLat sim.Duration
		for i := 0; i < 200 && !sawValue; i++ {
			start := p.Now()
			var got mvcc.Value
			err := reader.Run(p, func(tx *txn.Txn) error {
				v, err := tx.Get(p, mvcc.Key("g/cw"))
				got = v
				return err
			})
			d := p.Now().Sub(start)
			if d > maxLat {
				maxLat = d
			}
			if err == nil && string(got) == "v1" {
				sawValue = true
			}
			p.Sleep(5 * sim.Millisecond)
		}
		done.Wait(p)
		if !sawValue {
			t.Error("reader never observed the write")
		}
		// Bounded by max_clock_offset (plus small overheads), NOT by a
		// WAN round trip to the leaseholder (~310ms from asia).
		if maxLat > 300*sim.Millisecond {
			t.Errorf("contended global read latency %v exceeds commit-wait bound", maxLat)
		}
	})
}

func TestWriteWriteConflictQueues(t *testing.T) {
	tc := newTestCluster(t, 7, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		co := tc.coord(simnet.USEast1)
		w1, w2 := sim.NewFuture[string](tc.Sim), sim.NewFuture[string](tc.Sim)

		tc.Sim.Spawn("w1", func(wp *sim.Proc) {
			err := co.Run(wp, func(tx *txn.Txn) error {
				if err := tx.Put(wp, mvcc.Key("r/ww"), mvcc.Value("first")); err != nil {
					return err
				}
				// The write waits for the transaction's next batch: a read
				// lays its intent now.
				if _, err := tx.Get(wp, mvcc.Key("r/ww-other")); err != nil {
					return err
				}
				wp.Sleep(20 * sim.Millisecond) // hold the intent a while
				return nil
			})
			if err != nil {
				w1.Set("w1-err")
			} else {
				w1.Set("w1-ok")
			}
		})
		tc.Sim.Spawn("w2", func(wp *sim.Proc) {
			wp.Sleep(5 * sim.Millisecond) // start second
			err := co.Run(wp, func(tx *txn.Txn) error {
				return tx.Put(wp, mvcc.Key("r/ww"), mvcc.Value("second"))
			})
			if err != nil {
				w2.Set("w2-err")
			} else {
				w2.Set("w2-ok")
			}
		})
		for _, f := range []*sim.Future[string]{w1, w2} {
			if msg := f.Wait(p); msg == "w1-err" || msg == "w2-err" {
				t.Errorf("conflicting writer failed: %s", msg)
			}
		}
		// Final value is the second writer's.
		var got mvcc.Value
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("r/ww"))
			got = v
			return err
		}); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "second" {
			t.Errorf("final value %q, want \"second\"", got)
		}
	})
}

func TestReadBlocksOnIntentUntilCommit(t *testing.T) {
	tc := newTestCluster(t, 8, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		co := tc.coord(simnet.USEast1)
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/ib"), mvcc.Value("v0"))
		}); err != nil {
			t.Error(err)
			return
		}
		var readVal mvcc.Value
		var readDone sim.Time
		writerCommitted := sim.NewFuture[sim.Time](tc.Sim)
		tc.Sim.Spawn("writer", func(wp *sim.Proc) {
			co.Run(wp, func(tx *txn.Txn) error {
				if err := tx.Put(wp, mvcc.Key("r/ib"), mvcc.Value("v1")); err != nil {
					return err
				}
				// The write waits for the transaction's next batch: a read
				// lays its intent now.
				if _, err := tx.Get(wp, mvcc.Key("r/ib-other")); err != nil {
					return err
				}
				wp.Sleep(100 * sim.Millisecond) // hold lock
				return nil
			})
			writerCommitted.Set(wp.Now())
		})
		tc.Sim.Spawn("reader", func(rp *sim.Proc) {
			rp.Sleep(10 * sim.Millisecond) // read mid-write
			co.Run(rp, func(tx *txn.Txn) error {
				v, err := tx.Get(rp, mvcc.Key("r/ib"))
				readVal = v
				return err
			})
			readDone = rp.Now()
		})
		writerCommitted.Wait(p)
		p.Sleep(sim.Second)
		// The reader started at t=10ms but the writer holds its lock for
		// ~100ms before committing: the read must have blocked at least
		// until then (it may complete just before the writer's *ack*,
		// which additionally includes commit wait).
		if readDone < sim.Time(110*sim.Millisecond) {
			t.Errorf("read completed at %v; expected it to block on the intent until ~110ms", readDone)
		}
		if string(readVal) != "v1" {
			t.Errorf("read value %q, want the committed v1", readVal)
		}
	})
}

func TestSerializableReadModifyWrite(t *testing.T) {
	tc := newTestCluster(t, 9, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		co := tc.coord(simnet.USEast1)
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/ctr"), mvcc.Value("0"))
		}); err != nil {
			t.Error(err)
			return
		}
		// 10 concurrent increments; serializability requires the final
		// value to be exactly 10.
		wg := sim.NewWaitGroup(tc.Sim)
		const n = 10
		wg.Add(n)
		for i := 0; i < n; i++ {
			tc.Sim.Spawn("inc", func(wp *sim.Proc) {
				defer wg.Done()
				err := co.Run(wp, func(tx *txn.Txn) error {
					v, err := tx.Get(wp, mvcc.Key("r/ctr"))
					if err != nil {
						return err
					}
					cur := 0
					fmt.Sscanf(string(v), "%d", &cur)
					return tx.Put(wp, mvcc.Key("r/ctr"), mvcc.Value(fmt.Sprintf("%d", cur+1)))
				})
				if err != nil {
					t.Errorf("increment failed: %v", err)
				}
			})
		}
		wg.Wait(p)
		var got mvcc.Value
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("r/ctr"))
			got = v
			return err
		}); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "10" {
			t.Errorf("counter = %q, want 10 (lost update => serializability violation)", got)
		}
	})
}

// TestRegionSurvivability kills the leaseholder's entire region and asserts
// the cluster heals ITSELF: a surviving voter wins the Raft election,
// declares the dead leaseholder expired via node liveness, fences its epoch,
// acquires the lease through the log, and publishes the new routing — with
// zero admin or test intervention, within a bounded virtual-time RTO.
func TestRegionSurvivability(t *testing.T) {
	const rtoBound = 15 * sim.Second
	c := New(Config{Seed: 10, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	// REGION-survivable range: 5 voters, 2 in home region, spread wide.
	regionCfg := zones.Config{
		NumReplicas: 5, NumVoters: 5,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 2, simnet.EuropeW2: 2, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("s/"), []byte("s0"), regionCfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			failed = true
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.EuropeW2)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("s/a"), mvcc.Value("before"))
		}); err != nil {
			t.Errorf("pre-failure write: %v", err)
			return
		}
		// Kill the entire home region (including the leaseholder). No
		// recovery action follows — the cluster must heal on its own.
		failAt := p.Now()
		c.Net.FailRegion(simnet.USEast1)

		recoveredAt := sim.Time(0)
		for p.Now().Sub(failAt) < rtoBound {
			err := co.Run(p, func(tx *txn.Txn) error {
				v, err := tx.Get(p, mvcc.Key("s/a"))
				if err != nil {
					return err
				}
				if string(v) != "before" {
					return fmt.Errorf("lost data after region failure: %q", v)
				}
				return tx.Put(p, mvcc.Key("s/b"), mvcc.Value("after"))
			})
			if err == nil {
				recoveredAt = p.Now()
				break
			}
			p.Sleep(250 * sim.Millisecond)
		}
		if recoveredAt == 0 {
			t.Errorf("range did not recover within %v of region failure", rtoBound)
			return
		}
		t.Logf("region failover RTO: %v (virtual)", recoveredAt.Sub(failAt))
		// Routing converged on a surviving region's voter.
		nd, _ := c.Catalog.LookupByID(desc.RangeID)
		if loc, _ := c.Topo.LocalityOf(nd.Leaseholder); loc.Region == simnet.USEast1 {
			t.Errorf("leaseholder still in failed region: n%d", nd.Leaseholder)
		}
		if nd.Generation <= desc.Generation {
			t.Errorf("descriptor generation not bumped by lease acquisition: %d", nd.Generation)
		}
	})
	c.Sim.RunFor(5 * 60 * sim.Second)
	if failed {
		t.FailNow()
	}
}

func TestZoneSurvivableRangeLosesHomeRegion(t *testing.T) {
	c := New(Config{Seed: 11, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	zoneCfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("z/"), []byte("z0"), zoneCfg, kv.ClosedTSLag); err != nil {
		t.Fatal(err)
	}
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.EuropeW2)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("z/a"), mvcc.Value("v"))
		}); err != nil {
			t.Errorf("pre-failure write: %v", err)
			return
		}
		p.Sleep(4 * sim.Second) // let closed timestamps pass the write
		// staleTS is comfortably below the closed timestamp the local
		// non-voter will be frozen at once its leaseholder dies.
		staleTS := co.Store.Clock.Now().Add(-(kv.DefaultCloseLag + sim.Second))
		c.Net.FailRegion(simnet.USEast1)

		// Fresh writes cannot commit: all voters are in the dead region,
		// and no amount of liveness-driven recovery can move the lease to
		// a non-voter. The write must fail (bounded retry budget).
		tx := co.Begin(0)
		err := tx.Put(p, mvcc.Key("z/b"), mvcc.Value("doomed"))
		if err == nil {
			err = tx.Commit(p)
		}
		if err == nil {
			t.Error("write succeeded with home region down and ZONE survivability")
		}
		tx.Abort(p)

		// But stale reads still work from the local non-voter (paper
		// §6.2.2: partitioned replicas may still serve stale reads).
		val, served, err := co.ExactStaleRead(p, mvcc.Key("z/a"), staleTS)
		if err != nil {
			t.Errorf("stale read during outage: %v", err)
			return
		}
		if string(val) != "v" {
			t.Errorf("stale read got %q", val)
		}
		loc, _ := c.Topo.LocalityOf(served)
		if loc.Region != simnet.EuropeW2 {
			t.Errorf("stale read served from %s", loc.Region)
		}

		// The region comes back. With no admin in the loop, the range must
		// return to full service: the home-region voters re-elect, the
		// incumbent leaseholder revives (or a peer fences it and takes
		// over), and fresh writes commit again.
		healAt := p.Now()
		c.Net.RecoverRegion(simnet.USEast1)
		recovered := false
		for p.Now().Sub(healAt) < 30*sim.Second {
			if err := co.Run(p, func(tx *txn.Txn) error {
				return tx.Put(p, mvcc.Key("z/c"), mvcc.Value("after-heal"))
			}); err == nil {
				recovered = true
				break
			}
			p.Sleep(250 * sim.Millisecond)
		}
		if !recovered {
			t.Error("writes did not recover after region healed (no intervention)")
			return
		}
		t.Logf("post-heal write recovery: %v (virtual)", p.Now().Sub(healAt))
	})
	c.Sim.RunFor(5 * 60 * sim.Second)
}

func TestLeaseTransferMaintainsConsistency(t *testing.T) {
	tc := newTestCluster(t, 12, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		co := tc.coord(simnet.USEast1)
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/lt"), mvcc.Value("v1"))
		}); err != nil {
			t.Error(err)
			return
		}
		// Transfer the lease to another voter in us-east1.
		desc, _ := tc.Catalog.LookupByID(tc.regional.RangeID)
		var target simnet.NodeID
		for _, v := range desc.Voters {
			if v != desc.Leaseholder {
				target = v
				break
			}
		}
		if err := tc.Admin.TransferLease(p, tc.regional.RangeID, target); err != nil {
			t.Errorf("transfer: %v", err)
			return
		}
		// Reads and writes continue against the new leaseholder.
		if err := co.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("r/lt"))
			if err != nil {
				return err
			}
			if string(v) != "v1" {
				return fmt.Errorf("read %q after transfer", v)
			}
			return tx.Put(p, mvcc.Key("r/lt"), mvcc.Value("v2"))
		}); err != nil {
			t.Errorf("post-transfer txn: %v", err)
		}
	})
}

func TestRelocateRange(t *testing.T) {
	tc := newTestCluster(t, 13, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		co := tc.coord(simnet.USEast1)
		if err := co.Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("r/mv"), mvcc.Value("keepme"))
		}); err != nil {
			t.Error(err)
			return
		}
		// Re-home the regional range to europe-west2.
		alloc := tc.Allocator()
		newCfg := zones.Config{
			NumReplicas: 7, NumVoters: 3,
			VoterConstraints: map[simnet.Region]int{simnet.EuropeW2: 3},
			Constraints: map[simnet.Region]int{
				simnet.USEast1: 1, simnet.USWest1: 1, simnet.AsiaNE1: 1, simnet.AustralSE1: 1,
			},
			LeasePreferences: []simnet.Region{simnet.EuropeW2},
		}
		placement, err := alloc.Allocate(newCfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := tc.Admin.Relocate(p, tc.regional.RangeID, placement, kv.ClosedTSLag, nil); err != nil {
			t.Errorf("relocate: %v", err)
			return
		}
		// Data survives; new home serves locally.
		eu := tc.coord(simnet.EuropeW2)
		start := p.Now()
		var got mvcc.Value
		if err := eu.Run(p, func(tx *txn.Txn) error {
			v, err := tx.Get(p, mvcc.Key("r/mv"))
			got = v
			return err
		}); err != nil {
			t.Errorf("post-relocate read: %v", err)
			return
		}
		if string(got) != "keepme" {
			t.Errorf("data lost in relocation: %q", got)
		}
		if d := p.Now().Sub(start); d > 20*sim.Millisecond {
			t.Errorf("read from new home region took %v, want local", d)
		}
	})
}

func TestSingleKeyLinearizability(t *testing.T) {
	// Concurrent writers and readers on one GLOBAL key; after any read
	// returns value vN, no later-starting read may return an older value.
	tc := newTestCluster(t, 14, 250*sim.Millisecond)
	tc.run(t, func(p *sim.Proc) {
		type readEv struct {
			start, end sim.Time
			val        int
		}
		var reads []readEv
		writerDone := false
		tc.Sim.Spawn("writer", func(wp *sim.Proc) {
			co := tc.coord(simnet.USEast1)
			for i := 1; i <= 5; i++ {
				val := fmt.Sprintf("%d", i)
				if err := co.Run(wp, func(tx *txn.Txn) error {
					return tx.Put(wp, mvcc.Key("g/lin"), mvcc.Value(val))
				}); err != nil {
					t.Errorf("write %d: %v", i, err)
				}
			}
			writerDone = true
		})
		for _, region := range []simnet.Region{simnet.AsiaNE1, simnet.EuropeW2, simnet.USWest1} {
			region := region
			tc.Sim.Spawn("reader", func(rp *sim.Proc) {
				co := tc.coord(region)
				for !writerDone {
					start := rp.Now()
					var v mvcc.Value
					err := co.Run(rp, func(tx *txn.Txn) error {
						got, err := tx.Get(rp, mvcc.Key("g/lin"))
						v = got
						return err
					})
					if err == nil {
						n := 0
						if v != nil {
							fmt.Sscanf(string(v), "%d", &n)
						}
						reads = append(reads, readEv{start: start, end: rp.Now(), val: n})
					}
					rp.Sleep(20 * sim.Millisecond)
				}
			})
		}
		// Wait for everything to finish.
		for !writerDone {
			p.Sleep(100 * sim.Millisecond)
		}
		p.Sleep(2 * sim.Second)
		// Check: for any two reads where r1 ends before r2 starts,
		// r2.val >= r1.val (single-writer monotone values).
		for i := range reads {
			for j := range reads {
				if reads[i].end < reads[j].start && reads[j].val < reads[i].val {
					t.Errorf("linearizability violation: read ending at %v saw %d; later read starting at %v saw %d",
						reads[i].end, reads[i].val, reads[j].start, reads[j].val)
					return
				}
			}
		}
		if len(reads) == 0 {
			t.Error("no reads recorded")
		}
	})
}

func TestClusterDeterminism(t *testing.T) {
	runOnce := func() (sim.Time, int64) {
		tc := newTestCluster(t, 99, 250*sim.Millisecond)
		var committed int64
		tc.run(t, func(p *sim.Proc) {
			co := tc.coord(simnet.USWest1)
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("r/det-%d", i%5)
				co.Run(p, func(tx *txn.Txn) error {
					if i%3 == 0 {
						_, err := tx.Get(p, mvcc.Key(key))
						return err
					}
					return tx.Put(p, mvcc.Key(key), mvcc.Value(fmt.Sprintf("v%d", i)))
				})
			}
			committed = co.Committed
		})
		return tc.Sim.Now(), committed
	}
	t1, c1 := runOnce()
	t2, c2 := runOnce()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("nondeterministic cluster: (%v,%d) vs (%v,%d)", t1, c1, t2, c2)
	}
}

func TestTxnAbortedErrorType(t *testing.T) {
	err := error(&kv.TxnAbortedError{TxnID: 5})
	var ta *kv.TxnAbortedError
	if !errors.As(err, &ta) {
		t.Fatal("errors.As failed")
	}
	var _ hlc.Timestamp // keep import
}
