package workload

import (
	"fmt"
	"slices"
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/sql"
)

// clientKeys runs a YCSB over a three-region cluster built from cfg and
// returns the first n keys each client read or updated, by client.
func clientKeys(t *testing.T, cfg cluster.Config, ycfg YCSBConfig, n int) map[string][]int {
	t.Helper()
	cfg.Regions, cfg.MaxOffset = cluster.ThreeRegions(), 250*sim.Millisecond
	c := cluster.New(cfg)
	y := NewYCSB(c, sql.NewCatalog(), ycfg)
	keys := map[string][]int{}
	y.keyTrace = func(client string, key int) {
		if len(keys[client]) < n {
			keys[client] = append(keys[client], key)
		}
	}
	var runErr error
	c.Sim.Spawn("bench", func(p *sim.Proc) {
		defer c.Sim.Stop()
		if runErr = y.SetupSchema(p, "LOCALITY REGIONAL BY ROW"); runErr != nil {
			return
		}
		p.Sleep(500 * sim.Millisecond)
		if runErr = y.Load(p); runErr != nil {
			return
		}
		runErr = y.Run(p)
	})
	c.Sim.RunFor(30 * 60 * sim.Second)
	if runErr != nil {
		t.Fatal(runErr)
	}
	want := len(c.Regions()) * ycfg.ClientsPerRegion
	if len(keys) != want {
		t.Fatalf("%d clients chose keys, want %d", len(keys), want)
	}
	for client, ks := range keys {
		if len(ks) != n {
			t.Fatalf("client %s chose %d keys, want %d", client, len(ks), n)
		}
	}
	return keys
}

// sameKeys reports the first client whose keys differ between a and b.
func sameKeys(a, b map[string][]int) (string, bool) {
	for client, ks := range a {
		if !slices.Equal(ks, b[client]) {
			return fmt.Sprintf("%s: %v vs %v", client, ks, b[client]), false
		}
	}
	return "", len(a) == len(b)
}

// TestYCSBZipfianKeysFollowTheSeed: a zipfian client's keys come from its
// own stream, so they are a function of the run seed. A chooser seeded by
// the client's position alone would draw the same hot keys on every seed,
// and a median over seeds would sample one key sequence.
func TestYCSBZipfianKeysFollowTheSeed(t *testing.T) {
	ycfg := YCSBConfig{Variant: YCSBA, RecordCount: 300, Distribution: "zipfian", OpsPerClient: 100, ClientsPerRegion: 1}
	a := clientKeys(t, cluster.Config{Seed: 1}, ycfg, 100)
	if diff, ok := sameKeys(a, clientKeys(t, cluster.Config{Seed: 1}, ycfg, 100)); !ok {
		t.Fatalf("one seed chose different zipfian keys twice: %s", diff)
	}
	b := clientKeys(t, cluster.Config{Seed: 2}, ycfg, 100)
	for client, ks := range a {
		if slices.Equal(ks, b[client]) {
			t.Errorf("client %s chose the same first 100 zipfian keys on seeds 1 and 2", client)
		}
	}
}

// TestClientKeysIgnoreTracingAndDurability: tracing and durability change
// what the cluster does, and durability changes when, but not what a client
// asks for. Every client draws the same first keys with them on and off.
func TestClientKeysIgnoreTracingAndDurability(t *testing.T) {
	ycfg := YCSBConfig{Variant: YCSBB, RecordCount: 300, Distribution: "uniform", OpsPerClient: 40,
		ClientsPerRegion: 2, LocalityOfAccess: 0.9}
	base := clientKeys(t, cluster.Config{Seed: 5}, ycfg, 40)
	for _, v := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"tracing", cluster.Config{Seed: 5, Tracing: true}},
		{"durability", cluster.Config{Seed: 5, Durability: true}},
	} {
		if diff, ok := sameKeys(base, clientKeys(t, v.cfg, ycfg, 40)); !ok {
			t.Errorf("%s moved a client's keys: %s", v.name, diff)
		}
	}
}
