// Command mrsql is an interactive SQL shell against an in-process
// simulated multi-region cluster.
//
// Usage:
//
//	mrsql [-regions us-east1,europe-west2,asia-northeast1] [-e 'stmt' ...]
//
// Reads statements from stdin (or -e flags), one per line. Besides DDL and
// DML this includes the introspection surface: EXPLAIN ANALYZE <stmt> and
// SELECTs over the mrdb_internal virtual tables (statement_statistics,
// contention_events, ranges, node_liveness, timeseries, net_links).
// Meta-commands:
//
//	\region <name>   switch the gateway region of the session
//	\regions         list cluster regions
//	\ranges          dump range descriptors
//	\stats           dump the statement-statistics registry
//	\t on|off        toggle per-statement latency output
//	\q               quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
)

func main() {
	regionsFlag := flag.String("regions", "us-east1,europe-west2,asia-northeast1",
		"comma-separated cluster regions (3 zones x 1 node each)")
	var stmts multiFlag
	flag.Var(&stmts, "e", "statement to execute (repeatable); disables the interactive loop")
	flag.Parse()

	var specs []cluster.RegionSpec
	for _, r := range strings.Split(*regionsFlag, ",") {
		specs = append(specs, cluster.RegionSpec{
			Name: simnet.Region(strings.TrimSpace(r)), Zones: 3, NodesPerZone: 1,
		})
	}
	// Sampling feeds mrdb_internal.timeseries, so interactive sessions can
	// watch the cluster's trajectory; the shell's deferred Stop() terminates
	// the sampler tickers with everything else.
	c := cluster.New(cluster.Config{Seed: 1, Regions: specs, MaxOffset: 250 * sim.Millisecond, Sampling: true})
	catalog := sql.NewCatalog()

	var input func() (string, bool)
	if len(stmts) > 0 {
		i := 0
		input = func() (string, bool) {
			if i >= len(stmts) {
				return "", false
			}
			i++
			return stmts[i-1], true
		}
	} else {
		scanner := bufio.NewScanner(os.Stdin)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		input = func() (string, bool) {
			fmt.Print("mrdb> ")
			if !scanner.Scan() {
				return "", false
			}
			return scanner.Text(), true
		}
	}

	c.Sim.Spawn("mrsql", func(p *sim.Proc) {
		defer c.Sim.Stop()
		session := sql.NewSession(c, catalog, c.GatewayFor(specs[0].Name))
		// Repeated DML lines re-execute through a per-session prepared
		// statement, which reuses its shape, as a client of the extended
		// protocol would.
		prepared := map[string]*sql.Prepared{}
		showTiming := true
		for {
			line, ok := input()
			if !ok {
				return
			}
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "--") {
				continue
			}
			if strings.HasPrefix(line, "\\") {
				before := session
				if !metaCommand(p, c, &session, catalog, line, &showTiming) {
					return
				}
				if session != before {
					// Prepared statements are session-scoped.
					prepared = map[string]*sql.Prepared{}
				}
				continue
			}
			start := p.Now()
			res, err := execLine(p, session, prepared, line)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			printResult(res)
			if showTiming {
				fmt.Printf("-- %s @ %s\n", p.Now().Sub(start), session.Region())
			}
		}
	})
	c.Sim.Run()
}

// execLine executes one shell line, caching argument-free DML as prepared
// statements keyed by their text. DDL and introspection statements (or
// anything that fails to prepare) run through the plain path.
func execLine(p *sim.Proc, s *sql.Session, prepared map[string]*sql.Prepared, line string) (*sql.Result, error) {
	if ps, ok := prepared[line]; ok {
		return s.ExecPrepared(p, ps)
	}
	if ps, err := s.Prepare(line); err == nil && ps.NumArgs() == 0 {
		prepared[line] = ps
		return s.ExecPrepared(p, ps)
	}
	return s.Exec(p, line)
}

func metaCommand(p *sim.Proc, c *cluster.Cluster, session **sql.Session, catalog *sql.Catalog, line string, showTiming *bool) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q":
		return false
	case "\\region":
		if len(fields) != 2 {
			fmt.Println("usage: \\region <name>")
			return true
		}
		gw := c.GatewayFor(simnet.Region(fields[1]))
		if gw == 0 {
			fmt.Printf("no nodes in region %q\n", fields[1])
			return true
		}
		db := (*session).Database
		*session = sql.NewSession(c, catalog, gw)
		(*session).Database = db
		fmt.Printf("gateway now in %s\n", fields[1])
	case "\\regions":
		for _, r := range c.Regions() {
			fmt.Printf("  %s (%d nodes)\n", r, len(c.Topo.NodesInRegion(r)))
		}
	case "\\ranges":
		for _, d := range c.Catalog.All() {
			fmt.Printf("  r%-4d [%q, %q) lease=n%d policy=%s voters=%v nonvoters=%v\n",
				d.RangeID, d.StartKey, d.EndKey, d.Leaseholder, d.Policy, d.Voters, d.NonVoters)
		}
	case "\\stats":
		fmt.Print(c.StmtStats)
	case "\\t":
		*showTiming = len(fields) < 2 || fields[1] != "off"
	default:
		fmt.Printf("unknown meta-command %q\n", fields[0])
	}
	return true
}

func printResult(res *sql.Result) {
	if len(res.Columns) == 0 {
		if res.RowsAffected > 0 {
			fmt.Printf("OK, %d row(s)\n", res.RowsAffected)
		} else {
			fmt.Println("OK")
		}
		return
	}
	for _, col := range res.Columns {
		fmt.Printf("%-24s", col)
	}
	fmt.Println()
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Printf("%-24s", sql.FormatDatum(v))
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}
