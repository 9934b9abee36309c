package slab

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"
)

// overlaps reports whether a and b share any element.
func overlaps[T any](a, b []T) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[0])
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}

// TestTakeClipsAndNeverRefills: Take hands out zeroed structs with their
// capacity clipped, so appending to one result cannot reach the next, and
// no struct is handed out twice, across chunks too: a struct written after
// it was handed out keeps what its owner wrote.
func TestTakeClipsAndNeverRefills(t *testing.T) {
	var s Of[int]
	var taken [][]int
	for i := 0; i < 2000; i++ {
		n := 1 + i%7
		out := s.Take(n)
		if len(out) != n || cap(out) != n {
			t.Fatalf("Take(%d) returned len %d cap %d", n, len(out), cap(out))
		}
		for j := range out {
			if out[j] != 0 {
				t.Fatalf("Take(%d) handed out a struct holding %d", n, out[j])
			}
			out[j] = i
		}
		taken = append(taken, out)
	}
	grown := append(taken[0], -1)
	if overlaps(grown, taken[1]) {
		t.Error("appending to a result reached the next caller's structs")
	}
	for i, out := range taken {
		for _, v := range out {
			if v != i {
				t.Fatalf("result %d reads %d: a struct was handed out twice", i, v)
			}
		}
	}
}

// TestGivenChunkComesFirst: a given chunk is carved before any chunk of the
// Of's own, and once a Take needs more than it has left, the Of never
// returns to it.
func TestGivenChunkComesFirst(t *testing.T) {
	var first [3]int
	var s Of[int]
	s.Give(first[:])
	a := s.Take(1)
	if &a[0] != &first[0] {
		t.Fatal("the first Take did not carve the given chunk")
	}
	b := s.Take(3) // more than the given chunk has left: a chunk of the Of's own
	if overlaps(b, first[:]) {
		t.Fatal("a Take larger than the given chunk's rest carved it")
	}
	for i := 0; i < 100; i++ {
		if out := s.Take(1); overlaps(out, first[:]) {
			t.Fatalf("Take %d after the Of's own chunk returned to the given one", i)
		}
	}
	if first[1] != 0 || first[2] != 0 {
		t.Error("the given chunk's rest was written")
	}
}

// TestCarvedStringsKeepTheirBytes: a string carved from an Of reads the
// bytes it was given after many more carves, whatever the caller does with
// its own bytes, and a carved copy shares nothing with its source.
func TestCarvedStringsKeepTheirBytes(t *testing.T) {
	var s Of[byte]
	buf := []byte("k/0")
	first := String(&s, buf)
	buf[0] = 'x'
	if first != "k/0" {
		t.Fatalf("the carve follows its source: %q", first)
	}
	const n = 10000
	strs := make([]string, n)
	for i := range strs {
		buf = fmt.Appendf(buf[:0], "key/%05d", i)
		strs[i] = String(&s, buf)
	}
	for i, str := range strs {
		if want := fmt.Sprintf("key/%05d", i); str != want {
			t.Fatalf("carve %d reads %q after %d more carves, want %q", i, str, n-i-1, want)
		}
	}
	if first != "k/0" {
		t.Errorf("the first carve reads %q", first)
	}
	if String(&s, nil) != "" {
		t.Error("an empty key carved a non-empty string")
	}
	c := Copy(&s, buf)
	if string(c) != string(buf) || overlaps(c, buf) {
		t.Errorf("Copy returned %q (shares its source: %v)", c, overlaps(c, buf))
	}
}

// TestShortChunksStayShort: a Short's chunks double up to shortChunk
// structs and no further, a Take larger than that still gets its structs in
// one piece, and like an Of it never hands a struct out twice.
func TestShortChunksStayShort(t *testing.T) {
	var s Short[int]
	var taken [][]int
	for i := 0; i < 4*shortChunk; i++ {
		out := s.Take(1)
		out[0] = i + 1
		taken = append(taken, out)
		if s.of.next > shortChunk {
			t.Fatalf("after %d takes the next chunk holds %d structs, want at most %d", i+1, s.of.next, shortChunk)
		}
	}
	if s.of.next != shortChunk {
		t.Errorf("chunks grew to %d structs, want %d", s.of.next, shortChunk)
	}
	big := s.Take(3 * shortChunk)
	if len(big) != 3*shortChunk || cap(big) != 3*shortChunk {
		t.Fatalf("Take(%d) returned len %d cap %d", 3*shortChunk, len(big), cap(big))
	}
	for i, out := range taken {
		if out[0] != i+1 {
			t.Fatalf("result %d reads %d: a struct was handed out twice", i, out[0])
		}
	}
}

// boxActsLikeAny checks that a value boxed from s reads like any(v): equal
// to it, asserted and switched on as T, the same map key, printed the same
// and of the same dynamic type.
func boxActsLikeAny[T string | int64 | float64](t *testing.T, s interface{ New() *T }, v T) any {
	t.Helper()
	b, want := Box(s, v), any(v)
	if b != want {
		t.Errorf("Box(%v) != any(%v)", v, v)
	}
	if got, ok := b.(T); !ok || got != v {
		t.Errorf("Box(%v).(%T) = %v, %v", v, v, got, ok)
	}
	switch x := b.(type) {
	case T:
		if x != v {
			t.Errorf("a type switch on Box(%v) reads %v", v, x)
		}
	default:
		t.Errorf("a type switch on Box(%v) took the default case", v)
	}
	if m := map[any]int{want: 1}; m[b] != 1 {
		t.Errorf("Box(%v) misses the map entry any(%v) keys", v, v)
	}
	if got, exp := fmt.Sprintf("%v %T %#v", b, b, b), fmt.Sprintf("%v %T %#v", want, want, want); got != exp {
		t.Errorf("Box(%v) prints %q, want %q", v, got, exp)
	}
	if reflect.TypeOf(b) != reflect.TypeOf(want) {
		t.Errorf("reflect.TypeOf(Box(%v)) = %v, want %v", v, reflect.TypeOf(b), reflect.TypeOf(want))
	}
	return b
}

// TestBoxActsLikeAny: a string, an int64 and a float64 boxed into carved
// slots, from an Of or a Short, read like the same values converted to any,
// and keep reading so after their carves are dropped and collected; a box
// costs no object of its own once its chunk is there.
func TestBoxActsLikeAny(t *testing.T) {
	var strs Of[string]
	var shortStrs Short[string]
	var bytes Of[byte]
	var ints Of[int64]
	var floats Of[float64]
	var kept []any
	for i := 0; i < 1000; i++ {
		str := String(&bytes, fmt.Appendf(nil, "value-%d", i))
		kept = append(kept,
			boxActsLikeAny(t, &strs, str),
			boxActsLikeAny(t, &shortStrs, str),
			boxActsLikeAny(t, &ints, int64(i)*1000-7),
			boxActsLikeAny(t, &floats, float64(i)+0.25))
	}
	boxActsLikeAny(t, &strs, "")
	boxActsLikeAny(t, &shortStrs, "")
	boxActsLikeAny(t, &ints, 0)
	boxActsLikeAny(t, &floats, math.Inf(-1))
	strs, shortStrs, bytes, ints, floats = Of[string]{}, Short[string]{}, Of[byte]{}, Of[int64]{}, Of[float64]{}
	runtime.GC()
	runtime.GC()
	for i := 0; i < 1000; i++ {
		str := fmt.Sprintf("value-%d", i)
		if want := []any{str, str, int64(i)*1000 - 7, float64(i) + 0.25}; !slices.Equal(kept[4*i:4*i+4], want) {
			t.Fatalf("after a GC the boxes of row %d read %v, want %v", i, kept[4*i:4*i+4], want)
		}
	}

	// In steady state a box costs its slot and nothing else: the only
	// objects are the chunks, one per perChunk boxes. The counts are of the
	// whole process, and a GC cycle that starts inside one allocates for
	// itself (under GOGC=5 one run in fifty counted one to four objects
	// more), so the collector stays off while they run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1 << 14
	boxes := make([]any, n)
	for _, c := range []struct {
		what     string
		perChunk int
		box      func(i int)
	}{
		{"a string", perChunk[string](), func(i int) { boxes[i] = Box(&strs, "v") }},
		{"a string from a Short", shortChunk, func(i int) { boxes[i] = Box(&shortStrs, "v") }},
		{"an int64", perChunk[int64](), func(i int) { boxes[i] = Box(&ints, int64(i)<<20) }},
		{"a float64", perChunk[float64](), func(i int) { boxes[i] = Box(&floats, float64(i)/3) }},
	} {
		for i := range boxes { // chunks at their full size
			c.box(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range boxes {
			c.box(i)
		}
		runtime.ReadMemStats(&after)
		if got, most := after.Mallocs-before.Mallocs, uint64(n/c.perChunk+1); got > most {
			t.Errorf("boxing %s %d times made %d objects, want at most %d (its chunks)", c.what, n, got, most)
		}
	}
}
