package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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

// refSeries is a full-capacity ring: every slot allocated up front, the
// bucket with index bi in slot bi % capacity. A Series must retain exactly
// what it retains.
type refSeries struct {
	width sim.Duration
	slots []Bucket
	idx   []int64
	last  int64
}

func newRefSeries(width sim.Duration, capacity int) *refSeries {
	r := &refSeries{width: width, slots: make([]Bucket, capacity), idx: make([]int64, capacity), last: -1}
	for i := range r.idx {
		r.idx[i] = -1
	}
	return r
}

func (r *refSeries) observe(t sim.Time, v int64) {
	bi := int64(t) / int64(r.width)
	if r.last >= 0 && bi <= r.last-int64(len(r.slots)) {
		return
	}
	slot := int(bi % int64(len(r.slots)))
	if r.idx[slot] != bi {
		r.idx[slot] = bi
		r.slots[slot] = Bucket{}
	}
	r.slots[slot].merge(v)
	r.last = max(r.last, bi)
}

func (r *refSeries) buckets() []BucketAt {
	var out []BucketAt
	for i, bi := range r.idx {
		if bi >= 0 && bi > r.last-int64(len(r.slots)) {
			out = append(out, BucketAt{Start: sim.Time(bi * int64(r.width)), Bucket: r.slots[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TestRingGrowsToWhatItRetains runs random observation sequences through a
// DB's on-demand rings and through full-capacity reference rings: every
// series' Buckets and every metric's Merged view must be identical after
// every observation, and no ring may outgrow its capacity. The sequences
// step forward by less than a bucket, by a few buckets and by more than the
// capacity, and step back inside and past the retention window.
func TestRingGrowsToWhatItRetains(t *testing.T) {
	const width = 10 * sim.Second
	for _, capacity := range []int{1, 2, 3, 7, 8, 9, 16, 50, DefaultCapacity} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			db := New(width, capacity)
			refs := map[[2]int]*refSeries{}
			now := sim.Time(rng.Int63n(int64(3 * width)))
			for i := 0; i < 400; i++ {
				switch r := rng.Intn(100); {
				case r < 50: // the same or the next bucket
					now += sim.Time(rng.Int63n(int64(width)))
				case r < 70: // a few buckets on
					now += sim.Time(rng.Int63n(int64(20 * width)))
				case r < 75: // a jump past the whole ring
					now += sim.Time(int64(capacity)*int64(width) + rng.Int63n(int64(5*capacity)*int64(width)))
				}
				at := now
				if rng.Intn(4) == 0 { // an older sample: inside retention or past it
					at -= sim.Time(rng.Int63n(int64(capacity+3) * int64(width)))
					at = max(at, 0)
				}
				metric, node := rng.Intn(2), rng.Intn(3)
				key := [2]int{metric, node}
				if refs[key] == nil {
					refs[key] = newRefSeries(width, capacity)
				}
				v := rng.Int63n(2000) - 1000
				refs[key].observe(at, v)
				name := fmt.Sprintf("m%d", metric)
				db.Observe(name, node, at, v)
				got, want := db.Buckets(name, node), refs[key].buckets()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("capacity %d seed %d step %d: %s n%d holds %+v, want %+v", capacity, seed, i, name, node, got, want)
				}
				if n := len(db.Series(name, node).slots); n > capacity {
					t.Fatalf("capacity %d: a ring of %d slots", capacity, n)
				}
			}
			for metric := 0; metric < 2; metric++ {
				name := fmt.Sprintf("m%d", metric)
				var nodes []*refSeries
				for node := 0; node < 3; node++ {
					if r := refs[[2]int{metric, node}]; r != nil {
						nodes = append(nodes, r)
					}
				}
				if got, want := db.Merged(name), refMerged(nodes); !reflect.DeepEqual(got, want) {
					t.Fatalf("capacity %d seed %d: Merged(%s) = %+v, want %+v", capacity, seed, name, got, want)
				}
			}
		}
	}
}

// refMerged folds reference series bucket by bucket start, as Merged does.
func refMerged(series []*refSeries) []BucketAt {
	var out []BucketAt
	for _, r := range series {
		for _, b := range r.buckets() {
			i := sort.Search(len(out), func(i int) bool { return out[i].Start >= b.Start })
			if i == len(out) || out[i].Start != b.Start {
				out = append(out[:i], append([]BucketAt{b}, out[i:]...)...)
				continue
			}
			m := &out[i]
			m.Min, m.Max = min(m.Min, b.Min), max(m.Max, b.Max)
			m.Count += b.Count
			m.Sum += b.Sum
		}
	}
	return out
}

// TestSeriesHoldsWhatItHasSeen: a series sampled once a second for a minute
// (6 buckets of the default width, about what a benchmark failover run
// records) holds at most 1 KiB of heap, map entry included, where a ring
// of DefaultCapacity buckets allocated up front held about 30 KB.
func TestSeriesHoldsWhatItHasSeen(t *testing.T) {
	const series = 1000
	db := New(0, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for node := 0; node < series; node++ {
		for s := 0; s < 60; s++ {
			db.Observe("m", node, sim.Time(sim.Duration(s)*sim.Second), int64(s))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := len(db.Buckets("m", 0)); got != 6 {
		t.Fatalf("setup: a series holds %d buckets, want 6", got)
	}
	per := float64(after.HeapAlloc-before.HeapAlloc) / series
	runtime.KeepAlive(db)
	t.Logf("%.0f bytes of heap per series of 6 buckets", per)
	if per > 1024 {
		t.Errorf("a series of 6 buckets holds %.0f bytes of heap, want at most 1024", per)
	}
}
