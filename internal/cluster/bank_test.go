package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mrdb/internal/kv"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/txn"
	"mrdb/internal/zones"
)

// TestBankInvariant is a jepsen-style stress test: concurrent transfer
// transactions move money between accounts from every region while the
// total balance must stay constant. It exercises locking reads, refresh
// restarts, deadlock detection and parallel commits under real contention.
func TestBankInvariant(t *testing.T) {
	const (
		accounts  = 8
		initial   = 100
		movers    = 9 // 3 per region
		transfers = 12
	)
	c := New(Config{Seed: 21, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	cfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	if _, err := c.CreateRangeWithZoneConfig([]byte("acct/"), []byte("acct0"), cfg, kv.ClosedTSLag); err != nil {
		t.Fatal(err)
	}
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("acct/%03d", i)) }
	readBalance := func(p *sim.Proc, tx *txn.Txn, i int, locking bool) (int, error) {
		var v mvcc.Value
		var err error
		if locking {
			v, err = tx.GetForUpdate(p, key(i))
		} else {
			v, err = tx.Get(p, key(i))
		}
		if err != nil {
			return 0, err
		}
		n := 0
		fmt.Sscanf(string(v), "%d", &n)
		return n, nil
	}

	var setupErr error
	c.Sim.Spawn("bank", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			setupErr = err
			return
		}
		p.Sleep(500 * sim.Millisecond)
		seed := txn.NewCoordinator(c.Stores[c.GatewayFor(simnet.USEast1)], c.Senders[c.GatewayFor(simnet.USEast1)])
		if err := seed.Run(p, func(tx *txn.Txn) error {
			var kvs []mvcc.KeyValue
			for i := 0; i < accounts; i++ {
				kvs = append(kvs, mvcc.KeyValue{Key: key(i), Value: mvcc.Value(fmt.Sprintf("%d", initial))})
			}
			return tx.PutParallel(p, kvs, nil)
		}); err != nil {
			setupErr = err
			return
		}

		regions := c.Regions()
		wg := sim.NewWaitGroup(c.Sim)
		wg.Add(movers)
		rng := rand.New(rand.NewSource(21))
		for m := 0; m < movers; m++ {
			m := m
			region := regions[m%len(regions)]
			wg.Add(0)
			c.Sim.Spawn("mover", func(wp *sim.Proc) {
				defer wg.Done()
				gw := c.GatewayFor(region)
				co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
				for i := 0; i < transfers; i++ {
					from := rng.Intn(accounts)
					to := rng.Intn(accounts)
					if from == to {
						continue
					}
					// Lock in a consistent order to avoid deadlocks by
					// construction half the time; the other half relies
					// on the deadlock detector.
					if m%2 == 0 && from > to {
						from, to = to, from
					}
					amount := 1 + rng.Intn(5)
					err := co.Run(wp, func(tx *txn.Txn) error {
						a, err := readBalance(wp, tx, from, true)
						if err != nil {
							return err
						}
						b, err := readBalance(wp, tx, to, true)
						if err != nil {
							return err
						}
						if a < amount {
							return nil // insufficient funds, no-op
						}
						if err := tx.Put(wp, key(from), mvcc.Value(fmt.Sprintf("%d", a-amount))); err != nil {
							return err
						}
						return tx.Put(wp, key(to), mvcc.Value(fmt.Sprintf("%d", b+amount)))
					})
					if err != nil {
						t.Errorf("transfer failed permanently: %v", err)
						return
					}
				}
			})
		}
		// Auditors read all balances concurrently; every snapshot must
		// sum to the invariant total (serializability check under load).
		audits := 0
		c.Sim.Spawn("auditor", func(ap *sim.Proc) {
			gw := c.GatewayFor(simnet.EuropeW2)
			co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
			for i := 0; i < 10; i++ {
				total := 0
				err := co.Run(ap, func(tx *txn.Txn) error {
					total = 0
					for a := 0; a < accounts; a++ {
						n, err := readBalance(ap, tx, a, false)
						if err != nil {
							return err
						}
						total += n
					}
					return nil
				})
				if err != nil {
					t.Errorf("audit failed: %v", err)
					return
				}
				if total != accounts*initial {
					t.Errorf("audit %d: total = %d, want %d (serializability violation)", i, total, accounts*initial)
					return
				}
				audits++
				ap.Sleep(300 * sim.Millisecond)
			}
		})
		wg.Wait(p)
		p.Sleep(5 * sim.Second) // drain auditors and async resolution

		// Final sum.
		total := 0
		if err := seed.Run(p, func(tx *txn.Txn) error {
			total = 0
			for a := 0; a < accounts; a++ {
				n, err := readBalance(p, tx, a, false)
				if err != nil {
					return err
				}
				total += n
			}
			return nil
		}); err != nil {
			t.Error(err)
			return
		}
		if total != accounts*initial {
			t.Errorf("final total = %d, want %d", total, accounts*initial)
		}
		if audits == 0 {
			t.Error("auditor never ran")
		}
	})
	c.Sim.RunFor(60 * 60 * sim.Second)
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	if n := c.ApplyErrors(); n != 0 {
		t.Fatalf("%d apply errors", n)
	}
}

// TestBankSurvivesNodeCrash runs transfers while crashing and restarting a
// non-leaseholder node; the invariant must hold and operations must keep
// succeeding (ZONE survivability: one zone down).
func TestBankSurvivesNodeCrash(t *testing.T) {
	const accounts = 4
	const initial = 50
	c := New(Config{Seed: 22, Regions: ThreeRegions(), MaxOffset: 250 * sim.Millisecond})
	cfg := zones.Config{
		NumReplicas: 5, NumVoters: 3,
		VoterConstraints: map[simnet.Region]int{simnet.USEast1: 3},
		Constraints:      map[simnet.Region]int{simnet.EuropeW2: 1, simnet.AsiaNE1: 1},
		LeasePreferences: []simnet.Region{simnet.USEast1},
	}
	desc, err := c.CreateRangeWithZoneConfig([]byte("b/"), []byte("b0"), cfg, kv.ClosedTSLag)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) mvcc.Key { return mvcc.Key(fmt.Sprintf("b/%03d", i)) }
	c.Sim.Spawn("test", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if err := c.Admin.WaitAllReady(p); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Millisecond)
		gw := c.GatewayFor(simnet.USEast1)
		co := txn.NewCoordinator(c.Stores[gw], c.Senders[gw])
		if err := co.Run(p, func(tx *txn.Txn) error {
			var kvs []mvcc.KeyValue
			for i := 0; i < accounts; i++ {
				kvs = append(kvs, mvcc.KeyValue{Key: key(i), Value: mvcc.Value(fmt.Sprintf("%d", initial))})
			}
			return tx.PutParallel(p, kvs, nil)
		}); err != nil {
			t.Error(err)
			return
		}
		// Crash a non-leaseholder voter mid-run, later restart it.
		var victim simnet.NodeID
		for _, v := range desc.Voters {
			if v != desc.Leaseholder {
				victim = v
				break
			}
		}
		c.Sim.After(200*sim.Millisecond, func() { c.Net.CrashNode(victim) })
		c.Sim.After(3*sim.Second, func() { c.Net.RestartNode(victim) })

		for i := 0; i < 20; i++ {
			from, to := i%accounts, (i+1)%accounts
			err := co.Run(p, func(tx *txn.Txn) error {
				av, err := tx.GetForUpdate(p, key(from))
				if err != nil {
					return err
				}
				bv, err := tx.GetForUpdate(p, key(to))
				if err != nil {
					return err
				}
				a, b := 0, 0
				fmt.Sscanf(string(av), "%d", &a)
				fmt.Sscanf(string(bv), "%d", &b)
				if err := tx.Put(p, key(from), mvcc.Value(fmt.Sprintf("%d", a-1))); err != nil {
					return err
				}
				return tx.Put(p, key(to), mvcc.Value(fmt.Sprintf("%d", b+1)))
			})
			if err != nil {
				t.Errorf("transfer %d failed: %v", i, err)
				return
			}
		}
		total := 0
		if err := co.Run(p, func(tx *txn.Txn) error {
			total = 0
			for a := 0; a < accounts; a++ {
				v, err := tx.Get(p, key(a))
				if err != nil {
					return err
				}
				n := 0
				fmt.Sscanf(string(v), "%d", &n)
				total += n
			}
			return nil
		}); err != nil {
			t.Error(err)
			return
		}
		if total != accounts*initial {
			t.Errorf("total = %d, want %d", total, accounts*initial)
		}
	})
	c.Sim.RunFor(60 * 60 * sim.Second)
}
