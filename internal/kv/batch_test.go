package kv

import (
	"errors"
	"testing"

	"mrdb/internal/mvcc"
)

// TestScanBoundsTruncation pins the two halves of the rule that a span read
// never reaches past its range: the DistSender clamps each piece of a span
// to the range it sends it to, and a replica refuses a span it does not
// hold whole. A post-split engine retains a copy of the right half's data,
// so a replica that read past its bounds could return rows the range no
// longer owns and miss the writes that landed on their owner.
func TestScanBoundsTruncation(t *testing.T) {
	d := &RangeDescriptor{RangeID: 1, StartKey: mvcc.Key("b"), EndKey: mvcc.Key("m")}
	last := &RangeDescriptor{RangeID: 2, StartKey: mvcc.Key("m")}
	for _, c := range []struct {
		d                  *RangeDescriptor
		start, end         string // "" is nil: unbounded
		wantStart, wantEnd string
		holds              bool
	}{
		{d, "c", "h", "c", "h", true},
		{d, "b", "m", "b", "m", true},
		{d, "c", "z", "c", "m", false}, // past the range: the end clamps
		{d, "c", "", "c", "m", false},  // unbounded clamps the same way
		{d, "a", "h", "b", "h", false}, // before the range: the start clamps
		{d, "n", "z", "n", "m", false}, // no overlap: an empty span
		{last, "n", "z", "n", "z", true},
		{last, "n", "", "n", "", true}, // the last range holds an unbounded span
	} {
		key := func(s string) mvcc.Key {
			if s == "" {
				return nil
			}
			return mvcc.Key(s)
		}
		start, end := c.d.clamp(key(c.start), key(c.end))
		if string(start) != c.wantStart || string(end) != c.wantEnd || (c.wantEnd == "") != (end == nil) {
			t.Errorf("r%d clamp [%q, %q) = [%q, %q), want [%q, %q)", c.d.RangeID, c.start, c.end, start, end, c.wantStart, c.wantEnd)
		}
		r := &Replica{desc: c.d}
		scan := &ScanRequest{StartKey: key(c.start), EndKey: key(c.end)}
		var mismatch *RangeKeyMismatchError
		if err := scan.bounds(r); (err == nil) != c.holds || err != nil && !errors.As(err, &mismatch) {
			t.Errorf("r%d scan [%q, %q): %v, want held %v", c.d.RangeID, c.start, c.end, err, c.holds)
		}
		if c.end == "" {
			continue
		}
		refresh := &RefreshRequest{Key: key(c.start), EndKey: key(c.end)}
		if err := refresh.bounds(r); (err == nil) != c.holds {
			t.Errorf("r%d span refresh [%q, %q): %v, want held %v", c.d.RangeID, c.start, c.end, err, c.holds)
		}
	}
	// A point refresh needs only its key.
	if err := (&RefreshRequest{Key: mvcc.Key("c")}).bounds(&Replica{desc: d}); err != nil {
		t.Errorf("point refresh in range: %v", err)
	}
}

// TestDescContainsAll covers the predicate by which a batch routed on a
// descriptor that split since is divided again.
func TestDescContainsAll(t *testing.T) {
	d := &RangeDescriptor{StartKey: mvcc.Key("b"), EndKey: mvcc.Key("m")}
	in := []interface{}{
		&PutRequest{Key: mvcc.Key("c")},
		&GetRequest{Key: mvcc.Key("l")},
	}
	if !descContainsAll(d, in) {
		t.Fatal("contained batch rejected")
	}
	out := append(in, &PutRequest{Key: mvcc.Key("x")})
	if descContainsAll(d, out) {
		t.Fatal("escaped key accepted")
	}
	// A scan or span refresh is held only whole.
	if !descContainsAll(d, []interface{}{&ScanRequest{StartKey: mvcc.Key("c"), EndKey: mvcc.Key("m")}}) {
		t.Fatal("contained scan rejected")
	}
	if descContainsAll(d, []interface{}{&ScanRequest{StartKey: mvcc.Key("c"), EndKey: mvcc.Key("n")}}) {
		t.Fatal("scan crossing the range's end accepted")
	}
	if descContainsAll(d, []interface{}{&RefreshRequest{Key: mvcc.Key("c"), EndKey: mvcc.Key("z")}}) {
		t.Fatal("span refresh crossing the range's end accepted")
	}
}
