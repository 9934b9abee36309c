package main

import (
	"fmt"
	"math/rand"
	"time"

	"mrdb/internal/cluster"
	"mrdb/internal/hlc"
	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/obs"
	"mrdb/internal/raft"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/skl"
	"mrdb/internal/sql"
	"mrdb/internal/storage"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// Probes time public functions of one layer in isolation, in host
// nanoseconds per call: the median of probeBatches batches of at least
// probeBatch each. Multiplied by the per-op call counts of a workload they
// should account for wall_us_per_op x host_share.<layer>; where they do
// not, the probe is not exercising the path the workload uses.
const (
	probeBatches = 5
	probeBatch   = 100 * time.Millisecond
	probeKeys    = 100000
)

// timeCalls runs fn(n) — n calls of the probed function — and returns the
// median host nanoseconds per call. n is grown until one batch lasts at
// least probeBatch.
func timeCalls(fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= probeBatch {
			break
		} else if d < probeBatch/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(probeBatch)/float64(d)*1.2) + 1
		}
	}
	per := make([]float64, probeBatches)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// inSim runs body as the root proc of a fresh simulation and stops the
// simulation when it returns.
func inSim(s *sim.Simulation, body func(p *sim.Proc)) {
	s.Spawn("probe", func(p *sim.Proc) {
		defer s.Stop()
		body(p)
	})
	s.Run()
}

func probeKey(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// runProbes measures every [probe] metric.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, probeKeys)
	for i := range keys {
		keys[i] = probeKey(i)
	}
	order := rng.Perm(probeKeys)

	// hlc
	clock := hlc.NewClock(&hlc.ManualWallSource{Wall: 1}, 250*sim.Millisecond)
	var tsSink hlc.Timestamp
	out["hlc.now_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			tsSink = clock.Now()
		}
	})
	_ = tsSink

	// skl: insert builds fresh lists in random key order; lookup hits a
	// full 100k-key list.
	var list *skl.List
	out["skl.set_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			if i%probeKeys == 0 {
				list = skl.New(7)
			}
			list.Set(keys[order[i%probeKeys]], i)
		}
	})
	list = skl.New(7)
	for _, i := range order {
		list.Set(keys[i], i)
	}
	found := 0
	out["skl.get_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := list.Get(keys[order[i%probeKeys]]); ok {
				found++
			}
		}
	})
	if found == 0 {
		return nil, fmt.Errorf("probe: skiplist lookups found nothing")
	}

	// mvcc
	eng := mvcc.NewEngine(7)
	val := mvcc.Value("0123456789abcdef0123456789abcdef")
	for _, i := range order {
		if _, err := eng.Put(keys[i], val, hlc.Timestamp{WallTime: 1}, nil); err != nil {
			return nil, err
		}
	}
	wall := int64(1)
	var probeErr error
	out["mvcc.put_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			if i%probeKeys == 0 {
				wall++
			}
			if _, err := eng.Put(keys[order[i%probeKeys]], val, hlc.Timestamp{WallTime: wall}, nil); err != nil {
				probeErr = err
			}
		}
	})
	readTS := hlc.Timestamp{WallTime: wall + 1}
	out["mvcc.get_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := eng.Get(keys[order[i%probeKeys]], readTS, mvcc.GetOptions{}); err != nil {
				probeErr = err
			}
		}
	})
	const scanRows = 1000
	out["mvcc.scan_row_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			start := (i * 7919) % (probeKeys - scanRows)
			rows, err := eng.Scan(keys[start], keys[start+scanRows], readTS, 0, mvcc.GetOptions{})
			if err != nil || len(rows) != scanRows {
				probeErr = fmt.Errorf("probe: scan returned %d rows, err %v", len(rows), err)
			}
		}
	}) / scanRows
	// A fresh single-version engine: what a checkpoint of loaded data sees.
	snapEng := mvcc.NewEngine(7)
	for _, i := range order {
		if _, err := snapEng.Put(keys[i], val, hlc.Timestamp{WallTime: 1}, nil); err != nil {
			return nil, err
		}
	}
	out["mvcc.snapshot_key_ns"] = timeCalls(func(n int) {
		for i := 0; i < n; i++ {
			if len(snapEng.Snapshot()) != probeKeys {
				probeErr = fmt.Errorf("probe: snapshot lost keys")
			}
		}
	}) / probeKeys
	if probeErr != nil {
		return nil, probeErr
	}

	// obs
	{
		s := sim.New(1)
		tr := obs.NewTracer(s)
		tr.SetEnabled(true)
		root := tr.StartRoot("probe")
		out["obs.span_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				sp := tr.StartChild("probe.child", root)
				sp.SetTag("a", "1").SetTagInt("b", 2)
				sp.Finish()
			}
		})
	}

	// sim
	inSim(sim.New(1), func(p *sim.Proc) {
		out["sim.event_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
		s := p.Sim()
		out["sim.spawn_join_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				wg := s.GetWaitGroup()
				for j := 0; j < 8; j++ {
					j := j
					wg.Add(1)
					s.Spawn("probe/child", func(cp *sim.Proc) {
						cp.Sleep(sim.Duration(10+j) * sim.Microsecond)
						wg.Done()
					})
				}
				wg.Wait(p)
				wg.Release()
			}
		}) / 8
	})

	// simnet
	{
		s := sim.New(1)
		topo := simnet.NewTable1Topology()
		topo.AddNode(1, simnet.Locality{Region: simnet.USEast1, Zone: "a"})
		topo.AddNode(2, simnet.Locality{Region: simnet.USEast1, Zone: "b"})
		net := simnet.NewNetwork(s, topo)
		net.Register(2, func(m simnet.Message) { m.Payload.(*simnet.RPCRequest).Reply(m.Payload) })
		inSim(s, func(p *sim.Proc) {
			out["simnet.rpc_ns"] = timeCalls(func(n int) {
				for i := 0; i < n; i++ {
					if _, err := net.SendRPC(p, 1, 2, i, 0); err != nil {
						probeErr = err
					}
				}
			})
		})
	}

	// storage
	{
		s := sim.New(1)
		wal := storage.NewDisk(s, 1, obs.NewRegistry()).WAL("probe")
		payload := make([]byte, 128)
		inSim(s, func(p *sim.Proc) {
			out["storage.append_sync_ns"] = timeCalls(func(n int) {
				wal.ResetDurable(nil)
				for i := 0; i < n; i++ {
					done := sim.NewFuture[struct{}](s)
					wal.Append(payload)
					wal.Sync(func() { done.Set(struct{}{}) })
					done.Wait(p)
				}
			})
		})
	}

	if err := probeRaft(out); err != nil {
		return nil, err
	}
	if err := probeCluster(out); err != nil {
		return nil, err
	}
	if err := probeIdleRanges(out); err != nil {
		return nil, err
	}
	return out, probeErr
}

// countingTransport delivers raft messages with zero latency and counts
// them.
type countingTransport struct {
	s     *sim.Simulation
	nodes map[simnet.NodeID]*raft.Node
	sent  int64
}

func (t *countingTransport) Send(to simnet.NodeID, msg raft.Message) {
	t.sent++
	t.s.After(0, func() { t.nodes[to].Step(msg) })
}

// probeRaft measures one group of 3 in-memory voters over a zero-latency
// transport: host time and messages per committed proposal, and messages
// per virtual second when idle.
func probeRaft(out map[string]float64) error {
	s := sim.New(1)
	tr := &countingTransport{s: s, nodes: map[simnet.NodeID]*raft.Node{}}
	voters := []simnet.NodeID{1, 2, 3}
	for _, id := range voters {
		tr.nodes[id] = raft.NewNode(raft.Config{ID: id, Voters: voters, Sim: s, Transport: tr, Apply: func(raft.Entry) {}})
		tr.nodes[id].Start()
	}
	var err error
	inSim(s, func(p *sim.Proc) {
		leader := tr.nodes[1]
		leader.Campaign()
		for i := 0; i < 100 && !leader.IsLeader(); i++ {
			p.Sleep(10 * sim.Millisecond)
		}
		if !leader.IsLeader() {
			err = fmt.Errorf("probe: raft group elected no leader")
			return
		}
		var proposals, sent0 int64
		out["raft.propose_commit_ns"] = timeCalls(func(n int) {
			sent0, proposals = tr.sent, int64(n)
			for i := 0; i < n; i++ {
				fut, perr := leader.Propose(i)
				if perr != nil {
					err = perr
					return
				}
				if res := fut.Wait(p); res.Err != nil {
					err = res.Err
					return
				}
			}
		})
		out["raft.msgs_per_commit"] = float64(tr.sent-sent0) / float64(proposals)
		const idle = 60
		sent0 = tr.sent
		p.Sleep(idle * sim.Second)
		out["raft.idle_msgs_per_group_s"] = float64(tr.sent-sent0) / idle
	})
	return err
}

// oneRegion is the probe cluster: 3 nodes in 3 zones of one region, so no
// virtual WAN latency and the least background traffic.
func oneRegion() cluster.Config {
	return cluster.Config{
		Seed:    1,
		Regions: []cluster.RegionSpec{{Name: simnet.USEast1, Zones: 3, NodesPerZone: 1}},
	}
}

// probeCluster measures the kv, txn and sql entry points end to end on the
// one-region cluster.
func probeCluster(out map[string]float64) error {
	c := cluster.New(oneRegion())
	cat := sql.NewCatalog()
	var err error
	fail := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	zcfg := zones.Config{NumReplicas: 3, NumVoters: 3, LeasePreferences: []simnet.Region{simnet.USEast1}}
	if _, e := c.CreateRangeWithZoneConfig([]byte("probe/"), []byte("probe0"), zcfg, kv.ClosedTSLag); e != nil {
		return e
	}
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("probe/%06d", i%1024)) }
	c.Sim.Spawn("probe", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if e := c.Admin.WaitAllReady(p); e != nil {
			fail(e)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		ds, store := c.Senders[gw], c.Stores[gw]
		for i := 0; i < 1024; i++ {
			fail(ds.Send(p, &kv.PutRequest{Key: key(i), Value: mvcc.Value("v"), Timestamp: store.Clock.Now()}).Err)
		}

		out["kv.put_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				fail(ds.Send(p, &kv.PutRequest{Key: key(i), Value: mvcc.Value("v"), Timestamp: store.Clock.Now()}).Err)
			}
		})
		out["kv.ds_get_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				fail(ds.Send(p, &kv.GetRequest{Key: key(i), Timestamp: store.Clock.Now()}).Err)
			}
		})
		reqs := make([]interface{}, 16)
		out["kv.ds_batch16_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				now := store.Clock.Now()
				for j := range reqs {
					reqs[j] = &kv.GetRequest{Key: key(i*16 + j), Timestamp: now}
				}
				for _, resp := range ds.SendBatch(p, reqs) {
					fail(resp.Err)
				}
			}
		})

		co := txn.NewCoordinator(store, ds)
		out["txn.rw2_commit_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				fail(co.Run(p, func(t *txn.Txn) error {
					for j := 0; j < 2; j++ {
						if _, e := t.Get(p, key(4*i+j)); e != nil {
							return e
						}
					}
					for j := 2; j < 4; j++ {
						if e := t.Put(p, key(4*i+j), mvcc.Value("w")); e != nil {
							return e
						}
					}
					return nil
				}))
			}
		})

		s := sql.NewSession(c, cat, gw)
		_, e := s.Exec(p, fmt.Sprintf("CREATE DATABASE probe PRIMARY REGION %q", string(simnet.USEast1)))
		fail(e)
		s.Database = "probe"
		_, e = s.Exec(p, "CREATE TABLE t (k INT PRIMARY KEY, v STRING)")
		fail(e)
		if err != nil {
			return
		}
		insert := s.MustPrepare("INSERT INTO t (k, v) VALUES ($1, $2)")
		read := s.MustPrepare("SELECT v FROM t WHERE k = $1")
		next := int64(0)
		out["sql.insert_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				_, e := s.ExecPrepared(p, insert, next, "value")
				fail(e)
				next++
			}
		})
		out["sql.point_read_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				res, e := s.ExecPrepared(p, read, int64(i)%next)
				fail(e)
				if e == nil && len(res.Rows) != 1 {
					fail(fmt.Errorf("probe: point read returned %d rows", len(res.Rows)))
				}
			}
		})
		out["sql.plan_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				fail(s.PlanForBench(read, int64(i)))
			}
		})
		out["sql.parse_ns"] = timeCalls(func(n int) {
			for i := 0; i < n; i++ {
				_, e := sql.Parse("SELECT v FROM t WHERE k = 12345")
				fail(e)
			}
		})
	})
	c.Sim.Run()
	return err
}

// probeIdleRanges reports the events per virtual second one idle range
// adds: a cluster with idleRanges empty ranges against the same cluster
// with none, both idle for idleSeconds.
func probeIdleRanges(out map[string]float64) error {
	const idleRanges, idleSeconds = 32, 60
	events := func(ranges int) (int64, error) {
		c := cluster.New(oneRegion())
		zcfg := zones.Config{NumReplicas: 3, NumVoters: 3}
		for i := 0; i < ranges; i++ {
			start, end := fmt.Sprintf("idle/%03d", i), fmt.Sprintf("idle/%03d", i+1)
			if _, err := c.CreateRangeWithZoneConfig([]byte(start), []byte(end), zcfg, kv.ClosedTSLag); err != nil {
				return 0, err
			}
		}
		c.Sim.RunFor(5 * sim.Second) // elections and first heartbeats
		before := c.Sim.Events()
		c.Sim.RunFor(idleSeconds * sim.Second)
		return c.Sim.Events() - before, nil
	}
	with, err := events(idleRanges)
	if err != nil {
		return err
	}
	without, err := events(0)
	if err != nil {
		return err
	}
	out["kv.idle_events_per_range_s"] = float64(with-without) / (idleRanges * idleSeconds)
	return nil
}

// probeNames lists the [probe] metrics.
func probeNames() []string {
	var names []string
	for _, m := range perLayer {
		if m.Source == "probe" {
			names = append(names, m.Name)
		}
	}
	return names
}
