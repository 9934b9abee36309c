package sql

import (
	"fmt"
	"strings"
	"testing"

	"mrdb/internal/sim"
	"mrdb/internal/txn"
)

// TestRegionalByRowTransfersKeepTheTotal: one mover per region moves money
// between the rows of a REGIONAL BY ROW table, homed across the three
// regions, with read, read, update, update transactions. A read of a row
// homed elsewhere misses the gateway's partition and probes every remote
// one at once, returning on the first hit (§4.2), so a probe of a farther
// region is often still in flight when its statement — and then its
// transaction — is done. Such a probe once carried the transaction's
// pending writes: the commit went out without the earlier UPDATE's write,
// which then landed on its own, and the total drifted.
func TestRegionalByRowTransfersKeepTheTotal(t *testing.T) {
	h := newSQLHarness(981)
	h.run(t, func(p *sim.Proc) {
		const accounts, initial = 8, 100
		h.setupBank(t, p)
		regions := h.c.Regions()
		mustExec(t, p, h.sessions[regions[0]], `CREATE TABLE acct (id INT PRIMARY KEY, balance INT) LOCALITY REGIONAL BY ROW`)
		for i := 0; i < accounts; i++ {
			mustExec(t, p, h.sessions[regions[i%len(regions)]], fmt.Sprintf(`INSERT INTO acct (id, balance) VALUES (%d, %d)`, i, initial))
		}
		p.Sleep(sim.Second)

		total := func(s *Session) int64 {
			res := mustExec(t, p, s, `SELECT balance FROM acct`)
			sum := int64(0)
			for _, row := range res.Rows {
				sum += row[0].(int64)
			}
			return sum
		}
		wg := sim.NewWaitGroup(h.c.Sim)
		var ok, failed int
		var errs []string
		for m, region := range regions {
			s := NewSession(h.c, h.catalog, h.c.GatewayFor(region))
			s.Database = "bank"
			wg.Add(1)
			h.c.Sim.Spawn(fmt.Sprintf("mover%d", m), func(mp *sim.Proc) {
				defer wg.Done()
				rng := h.c.Sim.Stream(mp.Name())
				for end := mp.Now().Add(25 * sim.Second); mp.Now() < end; {
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					if from == to {
						continue
					}
					amount := int64(1 + rng.Intn(5))
					err := s.RunTxn(mp, func(tx *txn.Txn) error {
						var bal [2]int64
						for i, id := range []int{from, to} {
							res, err := s.ExecTxn(mp, tx, fmt.Sprintf(`SELECT balance FROM acct WHERE id = %d`, id))
							if err != nil {
								return err
							}
							if len(res.Rows) != 1 {
								return fmt.Errorf("account %d: %d rows", id, len(res.Rows))
							}
							bal[i] = res.Rows[0][0].(int64)
						}
						if bal[0] < amount {
							return nil
						}
						for i, id := range []int{from, to} {
							delta := amount
							if i == 0 {
								delta = -amount
							}
							if _, err := s.ExecTxn(mp, tx, fmt.Sprintf(`UPDATE acct SET balance = %d WHERE id = %d`, bal[i]+delta, id)); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						failed++
						errs = append(errs, err.Error())
					} else {
						ok++
					}
					mp.Sleep(50 * sim.Millisecond)
				}
			})
		}
		wg.Wait(p)
		p.Sleep(sim.Second)
		t.Logf("transfers ok=%d failed=%d", ok, failed)
		if failed > 0 {
			t.Errorf("%d transfers failed: %s", failed, strings.Join(errs, "; "))
		}
		for _, region := range regions {
			if got := total(h.sessions[region]); got != accounts*initial {
				t.Errorf("total read from %s is %d after %d transfers, want %d", region, got, ok, accounts*initial)
			}
		}
	})
}
