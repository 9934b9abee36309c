package sql

import (
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
)

// TestScanReadsEveryPartitionAtOneTimestamp: a SELECT from asia-northeast1
// scans a REGIONAL BY ROW table with one row in us-east1 and one in
// europe-west2. The gateway's link to the us-east1 leaseholder is slowed by
// 300 ms and the europe-west2 leaseholder's replies by 600 ms. 150 ms in, a
// europe-west2 writer moves 10 from the us-east1 row to the europe-west2 row,
// inside the reader's uncertainty interval. The europe-west2 partition is
// read before the write lands and the us-east1 one after, so the us-east1
// read meets an uncertain value, and the reader refreshes and reads again at
// its timestamp. The reader must see both rows before the transfer or both
// after it. A scan whose partitions went out on procs of their own read the
// europe-west2 row at the old timestamp while the us-east1 one refreshed and
// read the new row, so the total was 10 short.
func TestScanReadsEveryPartitionAtOneTimestamp(t *testing.T) {
	h := newSQLHarness(66)
	h.run(t, func(p *sim.Proc) {
		h.setupBank(t, p)
		mustExec(t, p, h.sessions[simnet.USEast1], `CREATE TABLE acct (id INT PRIMARY KEY, balance INT) LOCALITY REGIONAL BY ROW`)
		mustExec(t, p, h.sessions[simnet.USEast1], `INSERT INTO acct (id, balance) VALUES (1, 100)`)
		mustExec(t, p, h.sessions[simnet.EuropeW2], `INSERT INTO acct (id, balance) VALUES (2, 100)`)
		p.Sleep(sim.Second)

		tbl, _ := h.catalog.Table("bank", "acct")
		leaseholder := func(region simnet.Region) simnet.NodeID {
			start, _ := IndexSpan(tbl, tbl.Primary().ID, region)
			desc, err := h.c.Catalog.Lookup(start)
			if err != nil {
				t.Fatal(err)
			}
			return desc.Leaseholder
		}
		reader := h.sessions[simnet.AsiaNE1]
		gw := reader.Coord.Store.NodeID
		h.c.Net.SlowLink(gw, leaseholder(simnet.USEast1), 300*sim.Millisecond)
		h.c.Net.SlowLink(leaseholder(simnet.EuropeW2), gw, 600*sim.Millisecond)

		writer := h.sessions[simnet.EuropeW2]
		h.c.Sim.Spawn("writer", func(wp *sim.Proc) {
			wp.Sleep(150 * sim.Millisecond)
			if err := writer.RunTxn(wp, func(tx *txn.Txn) error {
				if _, err := writer.ExecTxn(wp, tx, `UPDATE acct SET balance = 90 WHERE id = 1`); err != nil {
					return err
				}
				_, err := writer.ExecTxn(wp, tx, `UPDATE acct SET balance = 110 WHERE id = 2`)
				return err
			}); err != nil {
				t.Errorf("writer: %v", err)
			}
		})
		res := mustExec(t, p, reader, `SELECT id, balance FROM acct`)
		h.c.Net.HealLink(gw, leaseholder(simnet.USEast1))
		h.c.Net.HealLink(gw, leaseholder(simnet.EuropeW2))
		got := map[int64]int64{}
		for _, row := range res.Rows {
			got[row[0].(int64)] = row[1].(int64)
		}
		if len(got) != 2 || got[1]+got[2] != 200 {
			t.Fatalf("the scan read balances %v, want both rows before the transfer (100, 100) or both after it (90, 110)", got)
		}
		if got[1] != 90 {
			t.Errorf("the scan read balances %v, want the transfer seen: the us-east1 read met it as uncertain", got)
		}
	})
}
