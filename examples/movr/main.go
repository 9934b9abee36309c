// movr: the paper's motivating ride-sharing application (§1.1, Fig. 1).
//
// A single-region movr schema is converted to multi-region with a handful
// of declarative statements: promo_codes becomes GLOBAL (read-mostly
// reference data), users and rides become REGIONAL BY ROW with a computed
// region, and the database keeps enforcing the global uniqueness of email
// addresses — the thing Fig. 1b says traditional sharding cannot do.
//
// Run with: go run ./examples/movr
package main

import (
	"fmt"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
)

func main() {
	// Four regions of hardware; the database starts with three.
	regions := append(cluster.ThreeRegions(),
		cluster.RegionSpec{Name: simnet.USWest1, Zones: 3, NodesPerZone: 1})
	c := cluster.New(cluster.Config{
		Seed:      7,
		Regions:   regions,
		MaxOffset: 250 * sim.Millisecond,
	})
	catalog := sql.NewCatalog()

	c.Sim.Spawn("movr", func(p *sim.Proc) {
		defer c.Sim.Stop()
		ny := sql.NewSession(c, catalog, c.GatewayFor(simnet.USEast1))
		tokyo := sql.NewSession(c, catalog, c.GatewayFor(simnet.AsiaNE1))
		london := sql.NewSession(c, catalog, c.GatewayFor(simnet.EuropeW2))

		must := func(s *sql.Session, q string) *sql.Result {
			res, err := s.Exec(p, q)
			if err != nil {
				panic(err)
			}
			return res
		}
		timed := func(s *sql.Session, label, q string) *sql.Result {
			start := p.Now()
			res, err := s.Exec(p, q)
			if err != nil {
				fmt.Printf("  %-46s !! %v\n", label, err)
				return nil
			}
			fmt.Printf("  %-46s %10s @ %s\n", label, p.Now().Sub(start), s.Region())
			return res
		}

		fmt.Println("== movr goes multi-region (paper Fig. 1c) ==")
		must(ny, `CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1"`)
		tokyo.Database, london.Database = "movr", "movr"
		// The city column determines the home region (computed
		// partitioning, §2.3.2) — no application changes needed.
		must(ny, `CREATE TABLE users (
			id INT PRIMARY KEY,
			city STRING NOT NULL,
			email STRING UNIQUE,
			name STRING,
			crdb_region crdb_internal_region AS (
				CASE WHEN city = 'new york' THEN 'us-east1'
				     WHEN city = 'london' THEN 'europe-west2'
				     ELSE 'asia-northeast1' END) STORED
		) LOCALITY REGIONAL BY ROW`)
		must(ny, `CREATE TABLE rides (
			id INT PRIMARY KEY,
			city STRING NOT NULL,
			rider_id INT,
			vehicle STRING,
			crdb_region crdb_internal_region AS (
				CASE WHEN city = 'new york' THEN 'us-east1'
				     WHEN city = 'london' THEN 'europe-west2'
				     ELSE 'asia-northeast1' END) STORED
		) LOCALITY REGIONAL BY ROW`)
		must(ny, `CREATE TABLE promo_codes (code STRING PRIMARY KEY, description STRING) LOCALITY GLOBAL`)
		p.Sleep(2 * sim.Second)

		fmt.Println("\n-- Riders sign up in their own cities (all local writes):")
		timed(ny, "INSERT user amy (new york)", `INSERT INTO users (id, city, email, name) VALUES (1, 'new york', 'amy@movr.com', 'Amy')`)
		timed(london, "INSERT user oli (london)", `INSERT INTO users (id, city, email, name) VALUES (2, 'london', 'oli@movr.com', 'Oli')`)
		timed(tokyo, "INSERT user kei (tokyo)", `INSERT INTO users (id, city, email, name) VALUES (3, 'tokyo', 'kei@movr.com', 'Kei')`)

		fmt.Println("\n-- The email uniqueness constraint is global (Fig. 1b said sharding loses this):")
		timed(tokyo, "INSERT duplicate email from tokyo", `INSERT INTO users (id, city, email, name) VALUES (9, 'tokyo', 'amy@movr.com', 'Imposter')`)

		fmt.Println("\n-- Logins look up by email; the region is unknown, but locality")
		fmt.Println("   optimized search (§4.2) stays local when the user is local:")
		timed(london, "SELECT by email (local user)", `SELECT name FROM users WHERE email = 'oli@movr.com'`)
		timed(london, "SELECT by email (remote user)", `SELECT name FROM users WHERE email = 'kei@movr.com'`)

		fmt.Println("\n-- When the city is in the query, it pins the region (computed partitioning):")
		timed(london, "SELECT by id+city (pinned local)", `SELECT name FROM users WHERE id = 2 AND city = 'london'`)

		fmt.Println("\n-- promo_codes is GLOBAL: one slow write, fast fresh reads in every region:")
		timed(ny, "INSERT promo code", `INSERT INTO promo_codes (code, description) VALUES ('RIDE5', '5 dollars off')`)
		timed(ny, "read promo (new york)", `SELECT description FROM promo_codes WHERE code = 'RIDE5'`)
		timed(london, "read promo (london)", `SELECT description FROM promo_codes WHERE code = 'RIDE5'`)
		timed(tokyo, "read promo (tokyo)", `SELECT description FROM promo_codes WHERE code = 'RIDE5'`)

		fmt.Println("\n-- Rides insert locally and join against the GLOBAL promo table without leaving the region:")
		txStart := p.Now()
		if err := london.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := london.ExecTxn(p, tx, `SELECT description FROM promo_codes WHERE code = 'RIDE5'`); err != nil {
				return err
			}
			_, err := london.ExecTxn(p, tx, `INSERT INTO rides (id, city, rider_id, vehicle) VALUES (100, 'london', 2, 'scooter')`)
			return err
		}); err != nil {
			panic(err)
		}
		fmt.Printf("  %-46s %10s @ %s\n", "txn: read promo + insert ride", p.Now().Sub(txStart), london.Region())

		fmt.Println("\n-- Adding a region is ONE statement (Table 2): new partitions are")
		fmt.Println("   created and every range gets a replica there automatically (§3.3):")
		timed(ny, `ALTER DATABASE movr ADD REGION`, `ALTER DATABASE movr ADD REGION "us-west1"`)
		sf := sql.NewSession(c, catalog, c.GatewayFor(simnet.USWest1))
		sf.Database = "movr"
		p.Sleep(2 * sim.Second)
		timed(sf, "INSERT user sam (san francisco)", `INSERT INTO users (id, city, email, name) VALUES (4, 'san francisco', 'sam@movr.com', 'Sam')`)
		if res := timed(sf, "where does sam live?", `SELECT crdb_region FROM users WHERE id = 4 AND city = 'san francisco'`); res != nil {
			fmt.Printf("  (crdb_region = %v — the computed CASE has no arm for it, so it fell to the ELSE region)\n", res.Rows[0][0])
		}
		timed(sf, "read promo (san francisco, GLOBAL)", `SELECT description FROM promo_codes WHERE code = 'RIDE5'`)
	})
	c.Sim.Run()
}
