package skl

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	l := New(1)
	if _, ok := l.Get([]byte("a")); ok {
		t.Fatal("empty list returned a value")
	}
	if _, replaced := l.Set([]byte("a"), 1); replaced {
		t.Fatal("fresh insert reported replace")
	}
	v, ok := l.Get([]byte("a"))
	if !ok || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	prev, replaced := l.Set([]byte("a"), 2)
	if !replaced || prev.(int) != 1 {
		t.Fatalf("replace = %v, %v", prev, replaced)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestIterationOrder(t *testing.T) {
	l := New(2)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		l.Set([]byte(k), i)
	}
	var got []string
	it := l.Iter()
	for it.First(); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestSeekGE(t *testing.T) {
	l := New(3)
	for _, k := range []string{"b", "d", "f"} {
		l.Set([]byte(k), k)
	}
	cases := []struct{ seek, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"f", "f"},
	}
	it := l.Iter()
	for _, c := range cases {
		it.SeekGE([]byte(c.seek))
		if !it.Valid() || string(it.Key()) != c.want {
			t.Fatalf("SeekGE(%q) landed on %q", c.seek, it.Key())
		}
	}
	it.SeekGE([]byte("g"))
	if it.Valid() {
		t.Fatal("SeekGE past end should be invalid")
	}
}

func TestSetValueViaIterator(t *testing.T) {
	l := New(4)
	l.Set([]byte("x"), 1)
	it := l.Iter()
	it.SeekGE([]byte("x"))
	*it.Ptr() = 2
	v, _ := l.Get([]byte("x"))
	if v.(int) != 2 {
		t.Fatalf("a value set through the iterator is not visible: %v", v)
	}
}

func TestKeyCopied(t *testing.T) {
	l := New(5)
	k := []byte("mutate")
	l.Set(k, 1)
	k[0] = 'X'
	if _, ok := l.Get([]byte("mutate")); !ok {
		t.Fatal("list retained caller's mutable key slice")
	}
}

func TestDeterministicStructure(t *testing.T) {
	build := func() []int {
		l := New(99)
		for i := 0; i < 1000; i++ {
			l.Set([]byte(fmt.Sprintf("%06d", i*7%1000)), i)
		}
		var heights []int
		it := l.Iter()
		for it.First(); it.Valid(); it.Next() {
			heights = append(heights, it.height())
		}
		return heights
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different towers")
		}
	}
}

// modelKeyLens are the key lengths the model check mixes: empty, the
// byte-at-a-time hash tail, one short of a hash block, exactly one, one
// over (the overlapping tail), and a record that needs a chunk of its own.
var modelKeyLens = []int{0, 1, 7, 8, 9, 70000}

// modelKey maps k onto eight keys of each length, few enough that a random
// op sequence keeps meeting keys it has already inserted.
func modelKey(k uint8) []byte {
	n := len(modelKeyLens)
	return bytes.Repeat([]byte{k / uint8(n) % 8}, modelKeyLens[int(k)%n])
}

// Property: the skiplist behaves exactly like a map + sorted keys under a
// random op sequence, through every way in: Set, Get, Upsert, Ptr and a
// seek.
func TestQuickModelCheck(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Val  int
	}
	f := func(seed int64, ops []op) bool {
		l := New(seed)
		model := map[string]int{}
		for _, o := range ops {
			k := modelKey(o.Key)
			mv, mok := model[string(k)]
			switch o.Kind % 5 {
			case 0:
				prev, replaced := l.Set(k, o.Val)
				if replaced != mok || (mok && prev.(int) != mv) {
					return false
				}
				model[string(k)] = o.Val
			case 1:
				v, ok := l.Get(k)
				if ok != mok || (ok && v.(int) != mv) {
					return false
				}
			case 2:
				p, created := l.Upsert(k)
				if created == mok || (created && *p != nil) || (mok && (*p).(int) != mv) {
					return false
				}
				*p = o.Val
				model[string(k)] = o.Val
			case 3:
				p := l.Ptr(k)
				if (p != nil) != mok || (mok && (*p).(int) != mv) {
					return false
				}
			case 4:
				// A seek lands on the smallest key >= k, and its cell is
				// the one the index leads to.
				want, found := "", false
				for mk := range model {
					if mk >= string(k) && (!found || mk < want) {
						want, found = mk, true
					}
				}
				it := l.Iter()
				it.SeekGE(k)
				if it.Valid() != found {
					return false
				}
				if found && (string(it.Key()) != want || it.Ptr() != l.Ptr([]byte(want))) {
					return false
				}
			}
		}
		if l.Len() != len(model) {
			return false
		}
		// Full ordered scan must match the sorted model.
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		it := l.Iter()
		i := 0
		for it.First(); it.Valid(); it.Next() {
			if i >= len(want) || string(it.Key()) != want[i] {
				return false
			}
			if (*it.Ptr()).(int) != model[want[i]] {
				return false
			}
			i++
		}
		return i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeScaleOrdered(t *testing.T) {
	l := New(7)
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	for i := 0; i < n; i++ {
		k := make([]byte, 8)
		rng.Read(k)
		l.Set(k, i)
	}
	it := l.Iter()
	var prev []byte
	count := 0
	for it.First(); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("keys out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != l.Len() {
		t.Fatalf("scan saw %d, Len %d", count, l.Len())
	}
}

func BenchmarkSet(b *testing.B) {
	l := New(1)
	keys := make([][]byte, 100000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%016d", i*2654435761%100000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Set(keys[i%len(keys)], i)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(1)
	keys := make([][]byte, 100000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%016d", i))
		l.Set(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get(keys[i%len(keys)])
	}
}

// The two benchmarks above walk their keys in insertion order, which keeps
// the towers in cache. These visit SQL-shaped keys in shuffled order, which
// is what a replica sees: a point read or a first write of a key it last
// touched long ago.
func benchRand(b *testing.B, n int, body func(keys [][]byte, order []int)) {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = sqlKey(i)
	}
	b.ReportAllocs()
	body(keys, rand.New(rand.NewSource(1)).Perm(n))
}

func benchRandGet(b *testing.B, n int) {
	benchRand(b, n, func(keys [][]byte, order []int) {
		l := New(7)
		for _, i := range order {
			l.Set(keys[i], i)
		}
		rand.New(rand.NewSource(2)).Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		found := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := l.Get(keys[order[i%n]]); ok {
				found++
			}
		}
		if found != b.N {
			b.Fatalf("found %d of %d", found, b.N)
		}
	})
}

// benchRandSet inserts new keys: a fresh list every n inserts.
func benchRandSet(b *testing.B, n int) {
	benchRand(b, n, func(keys [][]byte, order []int) {
		var l *List
		var v interface{} = 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				l = New(7)
			}
			l.Set(keys[order[i%n]], v)
		}
	})
}

func BenchmarkRandGet(b *testing.B) {
	b.Run("keys=4000", func(b *testing.B) { benchRandGet(b, 4000) })
	b.Run("keys=100000", func(b *testing.B) { benchRandGet(b, 100000) })
}

func BenchmarkRandSet(b *testing.B) {
	b.Run("keys=4000", func(b *testing.B) { benchRandSet(b, 4000) })
	b.Run("keys=100000", func(b *testing.B) { benchRandSet(b, 100000) })
}
