package tsdb

import (
	"testing"

	"mrdb/internal/sim"
)

func TestRollupBuckets(t *testing.T) {
	db := New(10*sim.Second, 8)
	// Three samples in bucket 0, one in bucket 2.
	db.Observe("m", 1, sim.Time(1*sim.Second), 5)
	db.Observe("m", 1, sim.Time(2*sim.Second), 1)
	db.Observe("m", 1, sim.Time(9*sim.Second), 9)
	db.Observe("m", 1, sim.Time(25*sim.Second), 7)

	bs := db.Buckets("m", 1)
	if len(bs) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(bs), bs)
	}
	b0 := bs[0]
	if b0.Start != 0 || b0.Count != 3 || b0.Sum != 15 || b0.Min != 1 || b0.Max != 9 {
		t.Errorf("bucket 0 = %+v", b0)
	}
	b2 := bs[1]
	if b2.Start != sim.Time(20*sim.Second) || b2.Count != 1 || b2.Min != 7 || b2.Max != 7 {
		t.Errorf("bucket 2 = %+v", b2)
	}
}

func TestRingEviction(t *testing.T) {
	const capacity = 4
	db := New(1*sim.Second, capacity)
	// 10 buckets through a 4-bucket ring: only the last 4 survive.
	for i := 0; i < 10; i++ {
		db.Observe("m", 0, sim.Time(sim.Duration(i)*sim.Second), int64(i))
	}
	bs := db.Buckets("m", 0)
	if len(bs) != capacity {
		t.Fatalf("got %d buckets, want %d", len(bs), capacity)
	}
	for i, b := range bs {
		want := int64(10 - capacity + i)
		if b.Min != want || b.Count != 1 {
			t.Errorf("bucket %d = %+v, want value %d", i, b, want)
		}
		if b.Start != sim.Time(sim.Duration(want)*sim.Second) {
			t.Errorf("bucket %d start = %v", i, b.Start)
		}
	}
	// A sample older than the retention window is dropped, not resurrected.
	db.Observe("m", 0, sim.Time(2*sim.Second), 999)
	for _, b := range db.Buckets("m", 0) {
		if b.Max == 999 {
			t.Error("stale observation resurrected an evicted bucket")
		}
	}
}

func TestMergedAcrossNodes(t *testing.T) {
	db := New(10*sim.Second, 8)
	db.Observe("lat", 1, sim.Time(1*sim.Second), 10)
	db.Observe("lat", 2, sim.Time(2*sim.Second), 30)
	db.Observe("lat", 2, sim.Time(12*sim.Second), 5)
	merged := db.Merged("lat")
	if len(merged) != 2 {
		t.Fatalf("got %d merged buckets, want 2", len(merged))
	}
	if merged[0].Count != 2 || merged[0].Min != 10 || merged[0].Max != 30 || merged[0].Sum != 40 {
		t.Errorf("merged bucket 0 = %+v", merged[0])
	}
	if merged[1].Count != 1 || merged[1].Max != 5 {
		t.Errorf("merged bucket 1 = %+v", merged[1])
	}
}

func TestNilSafety(t *testing.T) {
	var db *DB
	db.Observe("m", 0, 0, 1)
	if db.Metrics() != nil || db.Buckets("m", 0) != nil || db.Merged("m") != nil {
		t.Error("nil DB returned data")
	}
	var s *Series
	if s.Buckets() != nil {
		t.Error("nil Series returned data")
	}
}
