package hlc

import (
	"sort"
	"testing"
	"testing/quick"

	"mrdb/internal/sim"
)

func ts(wall int64, logical int32) Timestamp {
	return Timestamp{WallTime: wall, Logical: logical}
}

func TestTimestampOrdering(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		less bool
	}{
		{ts(1, 0), ts(2, 0), true},
		{ts(2, 0), ts(1, 0), false},
		{ts(1, 1), ts(1, 2), true},
		{ts(1, 2), ts(1, 2), false},
		{ts(0, 0), ts(0, 1), true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v < %v = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !ts(1, 1).LessEq(ts(1, 1)) {
		t.Error("LessEq not reflexive")
	}
	if MinTimestamp.Less(MinTimestamp) {
		t.Error("zero < zero")
	}
	if !MinTimestamp.Less(MaxTimestamp) {
		t.Error("min !< max")
	}
}

func TestTimestampNextPrev(t *testing.T) {
	a := ts(5, 7)
	if a.Next() != ts(5, 8) {
		t.Errorf("Next = %v", a.Next())
	}
	if a.Next().Prev() != a {
		t.Errorf("Next.Prev != identity")
	}
	b := ts(5, 0)
	if b.Prev() != ts(4, 1<<31-1) {
		t.Errorf("Prev across wall = %v", b.Prev())
	}
	if b.Prev().Next() != b {
		t.Errorf("Prev.Next != identity at wall boundary")
	}
}

func TestTimestampMaxMin(t *testing.T) {
	a, b := ts(1, 5), ts(2, 0)
	if a.Max(b) != b || b.Max(a) != b {
		t.Error("Max wrong")
	}
	if a.Min(b) != a || b.Min(a) != a {
		t.Error("Min wrong")
	}
}

func TestClockMonotonic(t *testing.T) {
	src := &ManualWallSource{Wall: 100}
	c := NewClock(src, 0)
	prev := c.Now()
	for i := 0; i < 100; i++ {
		// Wall clock frozen: logical must climb.
		cur := c.Now()
		if !prev.Less(cur) {
			t.Fatalf("clock not monotonic: %v then %v", prev, cur)
		}
		prev = cur
	}
	src.Advance(50)
	cur := c.Now()
	if cur.WallTime != 150 || cur.Logical != 0 {
		t.Fatalf("clock did not adopt advanced wall time: %v", cur)
	}
}

func TestSimWallSourceSkew(t *testing.T) {
	s := sim.New(1)
	fast := SimWallSource{Sim: s, Skew: 10 * sim.Millisecond}
	slow := SimWallSource{Sim: s, Skew: -10 * sim.Millisecond}
	s.Schedule(sim.Time(100*sim.Millisecond), func() {
		if fast.WallNow()-slow.WallNow() != int64(20*sim.Millisecond) {
			t.Errorf("skew spread wrong")
		}
	})
	s.Run()
	if slow.WallNow() < 0 {
		t.Error("negative wall time not clamped")
	}
}

func TestNowAfterCommitWait(t *testing.T) {
	src := &ManualWallSource{Wall: 1000}
	c := NewClock(src, 250)
	// Commit timestamp 200ns in the future: must wait just past it.
	d := c.NowAfter(ts(1200, 0))
	if d != 201 {
		t.Fatalf("NowAfter = %v, want 201", d)
	}
	// Already-past timestamps require no wait.
	if c.NowAfter(ts(999, 5)) != 0 {
		t.Fatal("past timestamp should not wait")
	}
	src.Advance(sim.Duration(d))
	if c.NowAfter(ts(1200, 0)) != 0 {
		t.Fatal("wait did not satisfy NowAfter")
	}
	if got := c.Now(); !ts(1200, 0).Less(got) {
		t.Fatalf("after waiting, Now = %v, want > 1200", got)
	}
}

// Property: Compare is a total order consistent with Less.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(aw, bw uint32, al, bl uint8) bool {
		a := ts(int64(aw), int32(al))
		b := ts(int64(bw), int32(bl))
		c := a.Compare(b)
		switch {
		case a.Less(b):
			return c == -1 && b.Compare(a) == 1
		case b.Less(a):
			return c == 1 && b.Compare(a) == -1
		default:
			return c == 0 && a == b
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Now calls interleaved with wall-clock advances yield strictly
// increasing timestamps.
func TestQuickClockMonotonicAcrossWallAdvances(t *testing.T) {
	f := func(ops []uint16) bool {
		src := &ManualWallSource{Wall: 1}
		c := NewClock(src, 0)
		var seen []Timestamp
		for _, op := range ops {
			if op%2 == 0 {
				seen = append(seen, c.Now())
			} else {
				src.Advance(sim.Duration(op % 100))
			}
		}
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i].Less(seen[j]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
