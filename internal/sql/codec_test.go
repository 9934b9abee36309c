package sql

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mrdb/internal/slab"
)

func TestKeyOrderingInts(t *testing.T) {
	vals := []int64{math.MinInt64, -1000, -1, 0, 1, 7, 1000, math.MaxInt64}
	var keys [][]byte
	for _, v := range vals {
		keys = append(keys, EncodeKeyDatum(nil, v))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("key order broken between %d and %d", vals[i-1], vals[i])
		}
	}
}

func TestKeyOrderingStringsWithNulls(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "ab", "b"}
	for i := 1; i < len(vals); i++ {
		a := EncodeKeyDatum(nil, vals[i-1])
		b := EncodeKeyDatum(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Fatalf("string key order broken between %q and %q", vals[i-1], vals[i])
		}
	}
}

// Property: encoded-key comparison matches value comparison for ints.
func TestQuickIntKeyOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKeyDatum(nil, a)
		kb := EncodeKeyDatum(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded-key comparison matches lexicographic order for strings.
func TestQuickStringKeyOrder(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKeyDatum(nil, a)
		kb := EncodeKeyDatum(nil, b)
		return (a < b) == (bytes.Compare(ka, kb) < 0) &&
			(a == b) == bytes.Equal(ka, kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: float keys sort correctly (NaN excluded).
func TestQuickFloatKeyOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKeyDatum(nil, a)
		kb := EncodeKeyDatum(nil, b)
		if a < b {
			return bytes.Compare(ka, kb) < 0
		}
		if a > b {
			return bytes.Compare(ka, kb) > 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: multi-datum tuples sort lexicographically by component.
func TestQuickTupleOrder(t *testing.T) {
	f := func(a1 int64, a2 string, b1 int64, b2 string) bool {
		ka := EncodeKeyDatum(EncodeKeyDatum(nil, a1), a2)
		kb := EncodeKeyDatum(EncodeKeyDatum(nil, b1), b2)
		var want int
		switch {
		case a1 < b1:
			want = -1
		case a1 > b1:
			want = 1
		case a2 < b2:
			want = -1
		case a2 > b2:
			want = 1
		}
		got := bytes.Compare(ka, kb)
		if got > 0 {
			got = 1
		} else if got < 0 {
			got = -1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowRoundTrip(t *testing.T) {
	vals := map[ColumnID]Datum{
		1: "hello",
		2: int64(-42),
		3: 3.5,
		4: true,
		5: nil,
		9: "trailing",
	}
	enc := encodeRow(new(slab.Of[byte]), vals, nil)
	got, err := DecodeRow(enc, new(DatumCarve))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("lengths: %d vs %d", len(got), len(vals))
	}
	for id, v := range vals {
		if !DatumsEqual(got[id], v) {
			t.Fatalf("col %d: %v vs %v", id, got[id], v)
		}
	}
}

// Property: row encode/decode is lossless for arbitrary string/int columns.
func TestQuickRowRoundTrip(t *testing.T) {
	f := func(strs []string, ints []int64) bool {
		vals := map[ColumnID]Datum{}
		id := ColumnID(1)
		for _, s := range strs {
			vals[id] = s
			id++
		}
		for _, n := range ints {
			vals[id] = n
			id++
		}
		got, err := DecodeRow(encodeRow(new(slab.Of[byte]), vals, nil), new(DatumCarve))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for k, v := range vals {
			if !DatumsEqual(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc", "abd"},
		{"a\xff", "b"},
	}
	for _, c := range cases {
		got := PrefixEnd([]byte(c.in))
		if string(got) != c.want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if PrefixEnd([]byte{0xff, 0xff}) != nil {
		t.Error("PrefixEnd of all-FF should be nil")
	}
	// Every key starting with p sorts below PrefixEnd(p).
	p := []byte("table/1/")
	end := PrefixEnd(p)
	keys := []string{"table/1/", "table/1/zzz", "table/1/\xff\xff"}
	for _, k := range keys {
		if bytes.Compare([]byte(k), end) >= 0 {
			t.Errorf("%q not below PrefixEnd", k)
		}
	}
}

func TestDatumsEqualNumeric(t *testing.T) {
	if !DatumsEqual(int64(3), 3.0) || !DatumsEqual(3.0, int64(3)) {
		t.Error("int/float equality")
	}
	if DatumsEqual(int64(3), 3.5) {
		t.Error("3 == 3.5")
	}
	if !DatumsEqual(int(3), int64(3)) {
		t.Error("int vs int64")
	}
	if !DatumsEqual(nil, nil) || DatumsEqual(nil, "x") {
		t.Error("nil comparisons")
	}
	_ = sort.Strings // keep import pattern consistent
}
