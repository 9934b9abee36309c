// iot: the real customer workload of paper §7.5.2 — a personalized
// assistant storing global IoT device and user data.
//
//   - Devices stay in their region and need fast event writes:
//     REGIONAL BY ROW.
//   - Users move around and need fast reads everywhere: GLOBAL.
//
// The demo also upgrades the database to SURVIVE REGION FAILURE and then
// kills an entire region to show reads and writes continuing.
//
// Run with: go run ./examples/iot
package main

import (
	"fmt"

	"mrdb/internal/cluster"
	"mrdb/internal/kv"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
)

func main() {
	c := cluster.New(cluster.Config{
		Seed:      11,
		Regions:   cluster.ThreeRegions(),
		MaxOffset: 250 * sim.Millisecond,
	})
	catalog := sql.NewCatalog()

	c.Sim.Spawn("iot", func(p *sim.Proc) {
		defer c.Sim.Stop()
		east := sql.NewSession(c, catalog, c.GatewayFor(simnet.USEast1))
		asia := sql.NewSession(c, catalog, c.GatewayFor(simnet.AsiaNE1))
		europe := sql.NewSession(c, catalog, c.GatewayFor(simnet.EuropeW2))

		timed := func(s *sql.Session, label, q string) *sql.Result {
			start := p.Now()
			res, err := s.Exec(p, q)
			if err != nil {
				fmt.Printf("  %-48s !! %v\n", label, err)
				return nil
			}
			fmt.Printf("  %-48s %10s @ %s\n", label, p.Now().Sub(start), s.Region())
			return res
		}

		fmt.Println("== IoT assistant (paper §7.5.2) ==")
		timed(east, "create database", `CREATE DATABASE iot PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		asia.Database, europe.Database = "iot", "iot"
		// Devices never move: deriving the region from the device ID
		// keeps writes local AND elides uniqueness checks (§4.1 case 3).
		timed(east, "devices: REGIONAL BY ROW", `CREATE TABLE device_events (
			device_id INT,
			seq INT,
			reading FLOAT,
			crdb_region crdb_internal_region AS (region_from_warehouse(device_id)) STORED,
			PRIMARY KEY (device_id, seq)
		) LOCALITY REGIONAL BY ROW`)
		timed(east, "users: GLOBAL", `CREATE TABLE user_profiles (
			user_id INT PRIMARY KEY,
			home_city STRING,
			assistant_voice STRING
		) LOCALITY GLOBAL`)
		p.Sleep(2 * sim.Second)

		fmt.Println("\n-- Devices write events fast in their own regions:")
		timed(asia, "device 3 event (tokyo)", `INSERT INTO device_events (device_id, seq, reading) VALUES (3, 1, 21.5)`)
		timed(asia, "device 3 event (tokyo)", `INSERT INTO device_events (device_id, seq, reading) VALUES (3, 2, 21.7)`)
		timed(europe, "device 7 event (london)", `INSERT INTO device_events (device_id, seq, reading) VALUES (7, 1, 18.2)`)

		fmt.Println("\n-- A user profile written once is readable fast everywhere they travel:")
		timed(east, "write profile", `INSERT INTO user_profiles (user_id, home_city, assistant_voice) VALUES (42, 'boston', 'calm')`)
		timed(east, "read profile (boston)", `SELECT assistant_voice FROM user_profiles WHERE user_id = 42`)
		timed(europe, "read profile (london)", `SELECT assistant_voice FROM user_profiles WHERE user_id = 42`)
		timed(asia, "read profile (tokyo)", `SELECT assistant_voice FROM user_profiles WHERE user_id = 42`)

		fmt.Println("\n-- Upgrade availability: SURVIVE REGION FAILURE (§2.2). Write")
		fmt.Println("   quorums now span regions, so writes pay the nearest-region RTT:")
		timed(east, "ALTER DATABASE iot SURVIVE REGION FAILURE", `ALTER DATABASE iot SURVIVE REGION FAILURE`)
		p.Sleep(time2())
		timed(asia, "device event after upgrade", `INSERT INTO device_events (device_id, seq, reading) VALUES (3, 3, 21.9)`)

		fmt.Println("\n-- Now kill the asia region entirely:")
		c.Net.FailRegion(simnet.AsiaNE1)
		// Production systems fail the lease over automatically via lease
		// expiry; the admin path models the recovery for the partitions
		// homed in the dead region.
		for _, d := range c.Catalog.All() {
			if loc, _ := c.Topo.LocalityOf(d.Leaseholder); loc.Region == simnet.AsiaNE1 {
				var target simnet.NodeID
				for _, v := range d.Voters {
					if l, _ := c.Topo.LocalityOf(v); l.Region != simnet.AsiaNE1 {
						target = v
						break
					}
				}
				if target == 0 {
					continue
				}
				sr, _ := c.Stores[target].Replica(d.RangeID)
				sr.Raft().Campaign()
				for i := 0; i < 200 && !sr.Raft().IsLeader(); i++ {
					p.Sleep(50 * sim.Millisecond)
				}
				nd := d.Clone()
				nd.Leaseholder = target
				nd.Generation++
				if f, err := sr.Raft().Propose(&kv.Command{Kind: kv.CmdLeaseTransfer, Desc: nd, Ts: c.Stores[target].Clock.Now().Add(c.MaxOffset)}); err == nil {
					f.Wait(p)
				}
				c.Catalog.Update(nd)
			}
		}
		fmt.Println("   (leases of asia-homed partitions failed over to surviving regions)")

		fmt.Println("\n-- The tokyo devices' data is still there, and writes still commit:")
		timed(europe, "read tokyo device history", `SELECT reading FROM device_events WHERE device_id = 3 AND seq = 2`)
		timed(europe, "write on behalf of device 3", `INSERT INTO device_events (device_id, seq, reading) VALUES (3, 4, 22.1)`)
		timed(europe, "read profile (GLOBAL, still local)", `SELECT assistant_voice FROM user_profiles WHERE user_id = 42`)
	})
	c.Sim.Run()
}

func time2() sim.Duration { return 2 * sim.Second }
