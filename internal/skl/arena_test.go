package skl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sqlKey is shaped like the keys the SQL layer writes.
func sqlKey(i int) []byte { return []byte(fmt.Sprintf("/t/usertable/1/us-east1/user%08d", i)) }

// TestIndexAndTowersAgree: the hash index and the towers are two ways to
// the same nodes. After 70 000 inserts (records in some sixty chunks, the
// first of which grew eleven times) and one key too large for a chunk, every
// key Get finds is where SeekGE lands, and every node a scan visits is one
// Get finds.
func TestIndexAndTowersAgree(t *testing.T) {
	const n = 70000
	m := NewMap[int](3)
	order := rand.New(rand.NewSource(5)).Perm(n)
	huge := bytes.Repeat([]byte("z"), 70000)
	for j, i := range order {
		if j == n/2 {
			m.Set(huge, -1)
		}
		m.Set(sqlKey(i), i)
	}
	if len(m.chunks) < 40 || cap(m.chunks[0]) != chunkSize {
		t.Fatalf("%d chunks, first of %d bytes: the inserts were meant to cross chunk boundaries", len(m.chunks), cap(m.chunks[0]))
	}
	it := m.Iter()
	for i := 0; i < n; i++ {
		k := sqlKey(i)
		v, ok := m.Get(k)
		if !ok || v != i {
			t.Fatalf("Get(%s) = %d, %v", k, v, ok)
		}
		if it.SeekGE(k); !it.Valid() || !bytes.Equal(it.Key(), k) || it.Ptr() != m.Ptr(k) {
			t.Fatalf("SeekGE(%s) did not land on the node Get found", k)
		}
	}
	seen := 0
	var prev []byte
	for it.First(); it.Valid(); it.Next() {
		if seen > 0 && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("scan out of order at %q", it.Key())
		}
		prev = it.Key()
		if p := m.Ptr(it.Key()); p == nil || p != it.Ptr() {
			t.Fatalf("scan visits %q, the index does not lead there", it.Key())
		}
		seen++
	}
	if seen != n+1 || m.Len() != n+1 {
		t.Fatalf("scan saw %d nodes, Len %d, want %d", seen, m.Len(), n+1)
	}
	if v, ok := m.Get(huge); !ok || v != -1 || !bytes.Equal(prev, huge) {
		t.Fatal("the oversize key is not the last node")
	}
}

// TestHeldKeySurvivesFirstChunkGrowth: a key slice from an iterator aliases
// the arena. The first chunk is replaced by a larger copy as it fills; the
// slice must go on reading its key, which it would not if growth rewrote
// the old chunk in place or reused its memory.
func TestHeldKeySurvivesFirstChunkGrowth(t *testing.T) {
	m := NewMap[int](1)
	m.Set([]byte("held"), 1)
	it := m.Iter()
	it.First()
	held := it.Key()
	first := cap(m.chunks[0])
	for i := 0; cap(m.chunks[0]) < chunkSize || len(m.chunks) < 3; i++ {
		m.Set(sqlKey(i), i)
	}
	if first != firstChunkSize {
		t.Fatalf("first chunk began at %d bytes, want %d", first, firstChunkSize)
	}
	if string(held) != "held" {
		t.Fatalf("held key now reads %q", held)
	}
	if it.SeekGE([]byte("held")); !bytes.Equal(it.Key(), held) {
		t.Fatal("the key moved in the order")
	}
	if cap(held) != len(held) {
		t.Fatal("a key slice has room to append into the arena")
	}
}

// TestValueAddressStable: *V from Upsert is the cell itself and stays the
// cell. Cells in one slice that grows by append would move.
func TestValueAddressStable(t *testing.T) {
	m := NewMap[[2]int](1)
	k := []byte("pinned")
	p, created := m.Upsert(k)
	if !created {
		t.Fatal("fresh key reported as existing")
	}
	p[0] = 7
	for i := 0; i < 10000; i++ {
		m.Upsert(sqlKey(i))
	}
	q, created := m.Upsert(k)
	if created || q != p || m.Ptr(k) != p {
		t.Fatalf("cell moved: %p then %p", p, q)
	}
	p[1] = 9
	if v, _ := m.Get(k); v != [2]int{7, 9} {
		t.Fatalf("write through the old pointer not visible: %v", v)
	}
}

// missProbes counts the slots a lookup of key inspects, the empty one that
// ends it included.
func missProbes[V any](m *Map[V], key []byte) int {
	mask := uint32(len(m.index) - 1)
	n := 1
	for i := hashKey(key) & mask; m.index[i] != 0; i = (i + 1) & mask {
		n++
	}
	return n
}

// TestMissProbeLength: every insert of a new key starts with a lookup that
// misses, so the hash has to spread the keys the system really writes —
// which differ in a few trailing bytes behind a long shared prefix — over
// the low bits that pick a slot. Linear probing at load a inspects
// (1 + 1/(1-a)^2)/2 slots per miss when the hash is uniform: 1.53 at the
// load below. A multiply alone fails this: its low bits never see the high
// bytes of a word.
func TestMissProbeLength(t *testing.T) {
	const n = 40000
	shapes := map[string]func(i int) []byte{
		"decimal suffix": func(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) },
		"shared prefix":  sqlKey,
		"two uint64s": func(i int) []byte {
			k := append([]byte("/t/order_line/"), make([]byte, 16)...)
			binary.BigEndian.PutUint64(k[14:], uint64(i/300))
			binary.BigEndian.PutUint64(k[22:], uint64(i%300))
			return k
		},
	}
	for name, key := range shapes {
		m := NewMap[struct{}](1)
		for i := 0; i < n; i++ {
			m.Upsert(key(i))
		}
		load := float64(m.Len()) / float64(len(m.index))
		total, worst := 0, 0
		for i := n; i < 2*n; i++ {
			p := missProbes(m, key(i))
			total += p
			worst = max(worst, p)
		}
		mean := float64(total) / n
		t.Logf("%s: load %.2f, mean %.2f probes per miss, max %d", name, load, mean, worst)
		if load < 0.25 || load > 0.5 {
			t.Errorf("%s: index load %.2f outside (1/4, 1/2]", name, load)
		}
		if mean > 2.0 {
			t.Errorf("%s: %.2f probes per miss, want <= 2.0", name, mean)
		}
	}
}

// TestPointOpsDoNotAllocate: a lookup, and an Upsert or Set that finds its
// key, allocate nothing; New allocates the Map and nothing else.
func TestPointOpsDoNotAllocate(t *testing.T) {
	m := NewMap[int](1)
	for i := 0; i < 1000; i++ {
		m.Set(sqlKey(i), i)
	}
	k := sqlKey(500)
	if n := testing.AllocsPerRun(100, func() { m.Get(k) }); n != 0 {
		t.Errorf("Get allocates %.0f", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Upsert(k) }); n != 0 {
		t.Errorf("Upsert of an existing key allocates %.0f", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Set(k, 1) }); n != 0 {
		t.Errorf("Set of an existing key allocates %.0f", n)
	}
	var sink *List
	if n := testing.AllocsPerRun(100, func() { sink = New(1) }); n > 1 {
		t.Errorf("New allocates %.0f objects", n)
	}
	_ = sink
}

// TestArenaFullPanics: the 65 537th chunk has no reference; say so.
func TestArenaFullPanics(t *testing.T) {
	m := NewMap[int](1)
	m.Set([]byte("a"), 1)
	m.chunks = append(m.chunks, make([][]byte, maxChunks-1)...)
	m.cur = maxChunks - 1 // nil: no room
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "arena full") {
			t.Fatalf("recovered %q", msg)
		}
	}()
	m.Set(sqlKey(1), 1)
	t.Fatal("insert into a full arena returned")
}
