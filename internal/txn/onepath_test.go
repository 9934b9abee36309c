package txn_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// globalRange adds a GLOBAL (closed-timestamp lead) range over "g/" with the
// harness's placement: voters in us-east1, non-voters in europe-west2 and
// asia-northeast1, so fresh reads of it are follower reads.
func (h *harness) globalRange(t *testing.T) *kv.RangeDescriptor {
	t.Helper()
	return h.homedRange(t, "g/", "g0", simnet.USEast1, nil, kv.ClosedTSLead)
}

func keysOf(ks ...string) []mvcc.Key {
	out := make([]mvcc.Key, len(ks))
	for i, k := range ks {
		out[i] = mvcc.Key(k)
	}
	return out
}

func writesOf(ks ...string) []mvcc.KeyValue {
	out := make([]mvcc.KeyValue, len(ks))
	for i, k := range ks {
		out[i] = mvcc.KeyValue{Key: mvcc.Key(k), Value: mvcc.Value("v-" + k)}
	}
	return out
}

// TestOneCoordinatorPath runs one fixed script through every point-read and
// write entry point of the coordinator — Get, GetForUpdate and GetParallel
// of one and of several keys; Put, Del and PutParallel with and without
// one-phase commit; a read of a pending write; a declined 1PC; Commit and
// Abort — from a remote gateway over a LAG and a GLOBAL range. After every
// step it records the virtual time since the script began and the gateway
// DistSender's RPC and cross-region RPC counts (asynchronous intent
// resolution included). Unconditional writes send nothing: they ride the
// next read, conditional write or commit, and an aborted transaction whose
// writes never left sends nothing at all. A point read of a key the
// transaction already read sends nothing either (get-parallel-4 sends only
// the g/ keys, get-global nothing), and the commit refreshes each key once.
// A change that adds, drops or reroutes a message, or moves virtual time,
// fails here. The times moved, and the counts held at every step, when the
// network's jitter got a random stream of its own.
func TestOneCoordinatorPath(t *testing.T) {
	h := newHarness(t, 27)
	h.globalRange(t)
	var got []string
	h.run(t, func(p *sim.Proc) {
		co := h.coord(simnet.EuropeW2)
		ds := co.Sender
		start, sent0, wan0 := p.Now(), ds.Sent, ds.WANRPCs
		step := func(name string, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			got = append(got, fmt.Sprintf("%s t=%d sent=%d wan=%d",
				name, int64(p.Now().Sub(start)), ds.Sent-sent0, ds.WANRPCs-wan0))
		}
		value := func(name string, v mvcc.Value, err error, want string) {
			t.Helper()
			if err == nil && string(v) != want {
				t.Errorf("%s read %q, want %q", name, v, want)
			}
			step(name, err)
		}

		step("seed", co.Run(p, func(tx *txn.Txn) error {
			if err := tx.Put(p, mvcc.Key("k/a"), mvcc.Value("v-k/a")); err != nil {
				return err
			}
			if err := tx.Put(p, mvcc.Key("k/b"), mvcc.Value("v-k/b")); err != nil {
				return err
			}
			return tx.PutParallel(p, writesOf("k/c", "g/a"), nil)
		}))

		tx := co.Begin(0)
		v, err := tx.Get(p, mvcc.Key("k/a"))
		value("get", v, err, "v-k/a")
		v, err = tx.GetForUpdate(p, mvcc.Key("k/b"))
		value("get-for-update", v, err, "v-k/b")
		vs, err := tx.GetParallel(p, keysOf("k/c"))
		if err == nil {
			v = vs[0]
		}
		value("get-parallel-1", v, err, "v-k/c")
		vs, err = tx.GetParallel(p, keysOf("k/a", "k/c", "g/a", "g/none"))
		if err == nil && (string(vs[0]) != "v-k/a" || string(vs[2]) != "v-g/a" || vs[3] != nil) {
			t.Errorf("get-parallel-4 read %q", vs)
		}
		step("get-parallel-4", err)
		v, err = tx.Get(p, mvcc.Key("g/a"))
		value("get-global", v, err, "v-g/a")
		step("put", tx.Put(p, mvcc.Key("k/d"), mvcc.Value("v-k/d")))
		step("del", tx.Del(p, mvcc.Key("k/b")))
		step("put-parallel", tx.PutParallel(p, writesOf("k/e", "g/b"), []bool{true, false}))
		step("commit", tx.Commit(p))

		tx = co.Begin(0)
		tx.AllowOnePC = true
		step("1pc-put", tx.Put(p, mvcc.Key("k/f"), mvcc.Value("v-k/f")))
		step("1pc-commit", tx.Commit(p))

		tx = co.Begin(0)
		tx.AllowOnePC = true
		step("1pc-put-parallel", tx.PutParallel(p, writesOf("k/g"), []bool{true}))
		v, err = tx.Get(p, mvcc.Key("k/g"))
		value("1pc-pending-get", v, err, "v-k/g")
		step("1pc-pending-commit", tx.Commit(p))

		tx = co.Begin(0)
		tx.AllowOnePC = true
		step("1pc-del", tx.Del(p, mvcc.Key("k/f")))
		step("1pc-del-commit", tx.Commit(p))

		tx = co.Begin(0)
		tx.AllowOnePC = true
		step("1pc-put-parallel-2", tx.PutParallel(p, writesOf("k/h", "k/i"), nil))
		step("1pc-put-parallel-2-commit", tx.Commit(p))

		tx = co.Begin(0)
		tx.AllowOnePC = true
		step("1pc-put-first", tx.Put(p, mvcc.Key("k/j"), mvcc.Value("v-k/j")))
		step("1pc-put-second", tx.Put(p, mvcc.Key("k/k"), mvcc.Value("v-k/k")))
		step("1pc-two-puts-commit", tx.Commit(p))

		// A GLOBAL write commits in the future, past the read of a key on
		// another range: the leaseholder cannot refresh that read, so it
		// declines the 1PC and the coordinator falls back to two phases.
		tx = co.Begin(0)
		tx.AllowOnePC = true
		v, err = tx.Get(p, mvcc.Key("k/a"))
		value("declined-get", v, err, "v-k/a")
		step("declined-put", tx.Put(p, mvcc.Key("g/c"), mvcc.Value("v-g/c")))
		step("declined-commit", tx.Commit(p))

		tx = co.Begin(0)
		step("abort-put", tx.Put(p, mvcc.Key("k/l"), mvcc.Value("v-k/l")))
		step("abort-put-parallel", tx.PutParallel(p, writesOf("k/m", "g/d"), nil))
		tx.Abort(p)
		step("abort", nil)

		p.Sleep(sim.Second) // asynchronous intent resolution
		step("settled", nil)
	})
	want := []string{
		"seed t=521491287 sent=7 wan=7",
		"get t=610585796 sent=8 wan=8",
		"get-for-update t=696659075 sent=9 wan=9",
		"get-parallel-1 t=782209019 sent=10 wan=10",
		"get-parallel-4 t=784247248 sent=11 wan=10",
		"get-global t=784247248 sent=11 wan=10",
		"put t=784247248 sent=11 wan=10",
		"del t=784247248 sent=11 wan=10",
		"put-parallel t=872528510 sent=13 wan=12",
		"commit t=1307299571 sent=25 wan=22",
		"1pc-put t=1307299571 sent=25 wan=22",
		"1pc-commit t=1396967508 sent=26 wan=23",
		"1pc-put-parallel t=1396967508 sent=26 wan=23",
		"1pc-pending-get t=1396967508 sent=26 wan=23",
		"1pc-pending-commit t=1486407893 sent=27 wan=24",
		"1pc-del t=1486407893 sent=27 wan=24",
		"1pc-del-commit t=1575196633 sent=28 wan=25",
		"1pc-put-parallel-2 t=1575196633 sent=28 wan=25",
		"1pc-put-parallel-2-commit t=1749538398 sent=31 wan=28",
		"1pc-put-first t=1749538398 sent=31 wan=28",
		"1pc-put-second t=1749538398 sent=31 wan=28",
		"1pc-two-puts-commit t=1925942356 sent=35 wan=32",
		"declined-get t=2013725965 sent=37 wan=34",
		"declined-put t=2013725965 sent=37 wan=34",
		"declined-commit t=2622908268 sent=43 wan=40",
		"abort-put t=2622908268 sent=43 wan=40",
		"abort-put-parallel t=2622908268 sent=43 wan=40",
		"abort t=2622908268 sent=43 wan=40",
		"settled t=3622908268 sent=43 wan=40",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("coordinator script:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// lagAsiaReplica writes g/a and g/b to the GLOBAL range desc, then slows the
// leaseholder's link to the range's asia-northeast1 replica so that replica's
// closed timestamp trails present time, and returns that replica's node.
func (h *harness) lagAsiaReplica(t *testing.T, p *sim.Proc, desc *kv.RangeDescriptor) simnet.NodeID {
	t.Helper()
	if err := h.coord(simnet.USEast1).Run(p, func(tx *txn.Txn) error {
		return tx.PutParallel(p, writesOf("g/a", "g/b"), nil)
	}); err != nil {
		t.Fatal(err)
	}
	var asia simnet.NodeID
	for _, id := range desc.Replicas() {
		if loc, _ := h.c.Topo.LocalityOf(id); loc.Region == simnet.AsiaNE1 {
			h.c.Net.SlowLink(desc.Leaseholder, id, sim.Second)
			asia = id
		}
	}
	p.Sleep(3 * sim.Second)
	return asia
}

// TestFollowerScanCoversUncertaintyInterval: a consistent scan, like a point
// read, is served by a follower only once the follower's closed timestamp
// covers its whole uncertainty interval (§6.2.1), not just its read
// timestamp: a write the follower has not yet received could still land in
// the interval's open part. Sent straight to the lagging asia-northeast1
// replica at a read timestamp that replica has closed and an uncertainty
// limit it has not, the scan is redirected; sent again once the closed
// timestamp passes the limit, it is served.
func TestFollowerScanCoversUncertaintyInterval(t *testing.T) {
	h := newHarness(t, 29)
	desc := h.globalRange(t)
	h.run(t, func(p *sim.Proc) {
		node := h.lagAsiaReplica(t, p, desc)
		rep, _ := h.c.Stores[node].Replica(desc.RangeID)
		gw := h.c.GatewayFor(simnet.AsiaNE1)
		readTS := rep.ClosedTimestamp()
		limit := readTS.Add(250 * sim.Millisecond)
		scan := func() kv.Response {
			raw, err := h.c.Net.SendRPC(p, gw, node, kv.BatchRequest{RangeID: desc.RangeID, Reqs: []interface{}{&kv.ScanRequest{
				StartKey: mvcc.Key("g/"), EndKey: mvcc.Key("g0"), Timestamp: readTS,
				Txn:         &kv.Txn{ReadTimestamp: readTS, GlobalUncertaintyLimit: limit},
				Uncertainty: true, FollowerRead: true,
			}}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return raw.(*kv.BatchResponse).Resps[0]
		}
		var unavailable *kv.FollowerReadUnavailableError
		if resp := scan(); !errors.As(resp.Err, &unavailable) {
			t.Errorf("follower scan with its uncertainty interval open: %+v, want FollowerReadUnavailableError", resp)
		}
		for rep.ClosedTimestamp().LessEq(limit) {
			p.Sleep(50 * sim.Millisecond)
		}
		if resp := scan(); resp.Err != nil || resp.Scan == nil || len(resp.Scan.Rows) != 2 {
			t.Errorf("follower scan once its closed timestamp passed the limit: %+v, want both rows", resp)
		}
	})
}

// TestFollowerReadBesidePendingWrite: from europe-west2, a write to the
// GLOBAL key g/a is left pending and a read of g/b on the same range carries
// it. The read is still a follower read served in europe-west2: the
// DistSender sends it to the local replica and the write to the us-east1
// leaseholder as two RPCs, of which only the write's crosses a region.
func TestFollowerReadBesidePendingWrite(t *testing.T) {
	h := newHarness(t, 45)
	desc := h.globalRange(t)
	h.run(t, func(p *sim.Proc) {
		if err := h.coord(simnet.USEast1).Run(p, func(tx *txn.Txn) error {
			return tx.Put(p, mvcc.Key("g/b"), mvcc.Value("v-g/b"))
		}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Second)
		var local *kv.Replica
		for _, id := range desc.Replicas() {
			if loc, _ := h.c.Topo.LocalityOf(id); loc.Region == simnet.EuropeW2 {
				local, _ = h.c.Stores[id].Replica(desc.RangeID)
			}
		}
		co := h.coord(simnet.EuropeW2)
		ds := co.Sender
		tx := co.Begin(0)
		if err := tx.Put(p, mvcc.Key("g/a"), mvcc.Value("mine")); err != nil {
			t.Fatal(err)
		}
		followerReads, sent, wan := local.FollowerReads, ds.Sent, ds.WANRPCs
		if v, err := tx.Get(p, mvcc.Key("g/b")); err != nil || string(v) != "v-g/b" {
			t.Fatalf("read beside a pending write: %q, %v", v, err)
		}
		if local.FollowerReads != followerReads+1 {
			t.Errorf("europe-west2 replica served %d follower reads, want 1", local.FollowerReads-followerReads)
		}
		if ds.Sent-sent != 2 || ds.WANRPCs-wan != 1 {
			t.Errorf("read with a pending write sent %d RPCs, %d cross-region; want 2, 1 (the write's)",
				ds.Sent-sent, ds.WANRPCs-wan)
		}
		lh, _ := h.c.Stores[desc.Leaseholder].Replica(desc.RangeID)
		if meta, ok := lh.EngineForBulkLoad().GetIntent(mvcc.Key("g/a")); !ok || meta.ID != tx.ID() {
			t.Errorf("the pending write did not land on the leaseholder (intent %v, %v)", meta, ok)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
	})
}
