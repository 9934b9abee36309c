// Package skl implements a deterministic ordered map: the skiplist under
// every replica's MVCC storage engine.
//
// A Map is keyed by []byte with bytes.Compare ordering. Tower heights come
// from a seeded generator so that, combined with the deterministic
// simulator, entire cluster runs are bit-for-bit reproducible.
//
// Every replica of every range owns one, so what a key costs here is paid
// five to seven times per row. Three rules keep that cost small:
//
//   - Nodes and their keys live in pointer-free []byte chunks the garbage
//     collector never looks inside. A node is the record
//
//     [value-cell index u32][keyLen<<8 | height u32][height × next u32][key, padded to 4]
//
//     and a reference to it is chunk<<16 | offset, 0 meaning nil. A tower is
//     as tall as its node (two links on average) and the key shares a cache
//     line with the links that lead to it.
//
//   - Values live beside the arena in slabs of cells that double in size and
//     never move, so a *V handed to a caller stays valid across inserts and
//     a value that holds pointers costs the collector one object per slab,
//     not one per key.
//
//   - Point lookups (Get, Ptr, the found half of Upsert and Set) skip the
//     towers: an embedded open-addressed hash index maps a key to its node in
//     one hash, one slot load and one bytes.Equal. The towers remain for
//     ordered access: SeekGE, scans and the insert position of a new key.
//
// There is no delete: MVCC garbage collection keeps every key's newest
// version, so a key once inserted stays, and nothing needs to reclaim a
// record's bytes or its value cell.
package skl

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

const (
	maxHeight = 20 // supports ~2^20 entries at p=0.5

	// A reference is 32 bits — a tower link costs 4 bytes, not 8, and a
	// hash slot has room for a 32-bit tag beside it — split 16/16: chunks of
	// 64 KiB are large enough that the tail wasted when one fills is noise
	// and small enough that an engine with a few thousand keys holds one or
	// two, and 2^16 of them address 4 GiB per map.
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	maxChunks  = 1 << (32 - chunkShift)

	// The first chunk starts this small and doubles until it is chunkSize,
	// so a map with 30 keys costs what 30 keys cost (tpcc_mix3 builds 125
	// engines, most of them tiny). Later chunks are allocated full-sized
	// and never move. Offset 0 of the first chunk is reserved: reference 0
	// is nil.
	firstChunkSize = 64
	firstChunkBase = 4

	// Value slabs hold 8, 8, 16, 32, … cells: doubling bounds the slack at
	// half the cells, and a slab is never reallocated, which is what keeps
	// *V stable.
	slabShift = 3

	// The hash index starts at minIndex slots and doubles to stay at most
	// half full.
	minIndex = 8

	recHeader = 8       // cell index + (keyLen<<8 | height)
	maxKeyLen = 1 << 24 // keyLen shares a word with the height
)

var le = binary.LittleEndian

// Map is an ordered map from []byte keys to V. The zero value is not
// usable; call NewMap.
type Map[V any] struct {
	// chunks[0] is reallocated at twice the size while it is smaller than
	// chunkSize; every other chunk has its final capacity from the start.
	// len(chunk) is the part in use. A record larger than a chunk gets one
	// of its own.
	chunks [][]byte
	cur    int // the chunk new records go to
	head   [maxHeight]uint32
	height int
	length int
	rng    uint64 // splitmix64 state

	slabs [][]V
	cells uint32 // cells handed out so far

	// index is open-addressed with linear probing. A slot is 0 when empty,
	// else tag<<32 | ref, where tag is the key's full 32-bit hash and the
	// slot's home is tag & (len(index)-1). The tag is what keeps probes off
	// the arena: a slot that belongs to another key is dismissed without
	// fetching that key, and growing re-places slots from their tags alone.
	index []uint64
}

// List is the interface{}-valued map.
type List = Map[interface{}]

// New returns an empty list whose tower heights derive from seed.
func New(seed int64) *List { return NewMap[interface{}](seed) }

// NewMap returns an empty map whose tower heights derive from seed. Nothing
// else is allocated until the first insert.
func NewMap[V any](seed int64) *Map[V] {
	return &Map[V]{height: 1, rng: uint64(seed)}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.length }

// randomHeight draws from splitmix64: eight bytes of state, where a
// math/rand source is 4.9 KB filled by a seeding loop per engine.
func (m *Map[V]) randomHeight() int {
	m.rng += 0x9e3779b97f4a7c15
	z := m.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + bits.TrailingZeros64(z|1<<(maxHeight-1))
}

// hashKey mixes eight key bytes per multiply and folds the high half down
// after each, so every input byte reaches the low bits that pick the slot.
// It is deterministic: a per-process seed would be harmless here (nothing
// iterates the index) but buys nothing either.
func hashKey(key []byte) uint32 {
	const (
		k1 = 0x9e3779b97f4a7c15
		k2 = 0xd6e8feb86659fd93
	)
	h := uint64(len(key)) * k2
	var last uint64
	if len(key) >= 8 {
		// The last eight bytes stand in for the tail, overlapping the
		// block before them unless the length is a multiple of eight.
		last = le.Uint64(key[len(key)-8:])
		for ; len(key) > 8; key = key[8:] {
			h = (h ^ le.Uint64(key)) * k1
			h ^= h >> 32
		}
	} else {
		for i, b := range key {
			last |= uint64(b) << (8 * i)
		}
	}
	h = (h ^ last) * k1
	h ^= h >> 32
	return uint32((h * k2) >> 32)
}

// rec returns the record at ref, running to the end of its chunk.
func (m *Map[V]) rec(ref uint32) []byte {
	return m.chunks[ref>>chunkShift][ref&(chunkSize-1):]
}

func recHeight(rec []byte) int { return int(rec[4]) }

func recKey(rec []byte) []byte {
	hdr := le.Uint32(rec[4:])
	lo := recHeader + 4*int(hdr&0xff)
	hi := lo + int(hdr>>8)
	return rec[lo:hi:hi]
}

// next returns the successor of x (0 is the head) at level i.
func (m *Map[V]) next(x uint32, i int) uint32 {
	if x == 0 {
		return m.head[i]
	}
	return le.Uint32(m.rec(x)[recHeader+4*i:])
}

func (m *Map[V]) setNext(x uint32, i int, to uint32) {
	if x == 0 {
		m.head[i] = to
		return
	}
	le.PutUint32(m.rec(x)[recHeader+4*i:], to)
}

// cell returns the address of value cell i.
func (m *Map[V]) cell(i uint32) *V {
	s := bits.Len32(i >> slabShift)
	if s > 0 {
		i -= 1 << (slabShift + s - 1)
	}
	return &m.slabs[s][i]
}

func (m *Map[V]) allocCell() uint32 {
	i := m.cells
	m.cells++
	if s := bits.Len32(i >> slabShift); s == len(m.slabs) {
		size := 1 << slabShift
		if s > 0 {
			size <<= s - 1
		}
		m.slabs = append(m.slabs, make([]V, size))
	}
	return i
}

// alloc reserves size bytes (a multiple of 4) for a record and returns its
// reference and its bytes.
func (m *Map[V]) alloc(size int) (uint32, []byte) {
	if len(m.chunks) == 0 {
		m.chunks = append(m.chunks, make([]byte, firstChunkBase, firstChunkSize))
	}
	if size > chunkSize-firstChunkBase {
		m.checkChunks()
		m.chunks = append(m.chunks, make([]byte, size))
		n := len(m.chunks) - 1
		return uint32(n) << chunkShift, m.chunks[n]
	}
	c := m.chunks[m.cur]
	off := len(c)
	if off+size > cap(c) {
		if m.cur == 0 && off+size <= chunkSize {
			// Only the first chunk is ever below chunkSize. The old one
			// is left as it is: key slices handed out before still read
			// the same bytes.
			n := 2 * cap(c)
			for n < off+size {
				n *= 2
			}
			grown := make([]byte, off, n)
			copy(grown, c)
			c = grown
		} else {
			m.checkChunks()
			c, off = make([]byte, 0, chunkSize), 0
			m.chunks = append(m.chunks, c)
			m.cur = len(m.chunks) - 1
		}
	}
	c = c[:off+size]
	m.chunks[m.cur] = c
	return uint32(m.cur)<<chunkShift | uint32(off), c[off:]
}

func (m *Map[V]) checkChunks() {
	if len(m.chunks) == maxChunks {
		panic("skl: arena full: 65536 chunks (4 GiB) is as far as a 32-bit reference reaches")
	}
}

// lookup returns the value cell of key, whose hash is h, or nil.
func (m *Map[V]) lookup(key []byte, h uint32) *V {
	if len(m.index) == 0 {
		return nil
	}
	mask := uint32(len(m.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := m.index[i]
		if s == 0 {
			return nil
		}
		if uint32(s>>32) == h {
			if rec := m.rec(uint32(s)); bytes.Equal(recKey(rec), key) {
				return m.cell(le.Uint32(rec))
			}
		}
	}
}

// place puts slot into the first free position of its probe sequence.
func place(index []uint64, slot uint64) {
	mask := uint32(len(index) - 1)
	i := uint32(slot>>32) & mask
	for index[i] != 0 {
		i = (i + 1) & mask
	}
	index[i] = slot
}

// indexInsert records ref, which must not be present, under hash h.
func (m *Map[V]) indexInsert(h, ref uint32) {
	if 2*m.length > len(m.index) {
		grown := make([]uint64, max(minIndex, 2*len(m.index)))
		for _, s := range m.index {
			if s != 0 {
				place(grown, s)
			}
		}
		m.index = grown
	}
	place(m.index, uint64(h)<<32|uint64(ref))
}

// findGE locates the first node with key >= key. prev, if non-nil, is filled
// with the rightmost node before the target at every level up to the list's
// height (0 is the head).
func (m *Map[V]) findGE(key []byte, prev *[maxHeight]uint32) uint32 {
	var x, nx uint32
	// ge is the node the level above stopped at: known >= key, so meeting it
	// again needs no comparison.
	var ge uint32
	for i := m.height - 1; i >= 0; i-- {
		for {
			nx = m.next(x, i)
			if nx == 0 || nx == ge {
				break
			}
			if bytes.Compare(recKey(m.rec(nx)), key) >= 0 {
				ge = nx
				break
			}
			x = nx
		}
		if prev != nil {
			prev[i] = x
		}
	}
	return nx
}

// insert adds key, which must be absent and whose hash is h, and returns its
// zero-valued cell.
func (m *Map[V]) insert(key []byte, h uint32) *V {
	if len(key) >= maxKeyLen {
		panic("skl: key of 16 MiB or more")
	}
	var prev [maxHeight]uint32 // zero is the head: right for levels above m.height
	m.findGE(key, &prev)
	height := m.randomHeight()
	if height > m.height {
		m.height = height
	}
	keyAt := recHeader + 4*height
	ref, rec := m.alloc(keyAt + (len(key)+3)&^3)
	ci := m.allocCell()
	le.PutUint32(rec, ci)
	le.PutUint32(rec[4:], uint32(len(key))<<8|uint32(height))
	copy(rec[keyAt:], key)
	for i := 0; i < height; i++ {
		le.PutUint32(rec[recHeader+4*i:], m.next(prev[i], i))
		m.setNext(prev[i], i, ref)
	}
	m.length++
	m.indexInsert(h, ref)
	return m.cell(ci)
}

// Ptr returns the address of key's value, or nil if key is absent. The
// address stays valid for the life of the map.
func (m *Map[V]) Ptr(key []byte) *V { return m.lookup(key, hashKey(key)) }

// Upsert returns the address of key's value, first inserting key with a
// zero value if it is absent; created reports which. The key is copied.
func (m *Map[V]) Upsert(key []byte) (p *V, created bool) {
	h := hashKey(key)
	if p := m.lookup(key, h); p != nil {
		return p, false
	}
	return m.insert(key, h), true
}

// Set inserts or replaces the value for key. It returns the previous value
// and whether one existed.
func (m *Map[V]) Set(key []byte, value V) (prev V, replaced bool) {
	p, created := m.Upsert(key)
	prev, *p = *p, value
	return prev, !created
}

// Get returns the value for key.
func (m *Map[V]) Get(key []byte) (V, bool) {
	if p := m.Ptr(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Iterator walks entries in key order. It holds references, not slices, so
// it stays positioned across inserts.
type Iterator[V any] struct {
	m   *Map[V]
	cur uint32
}

// Iter returns an unpositioned iterator by value, so iteration-heavy paths
// (MVCC scans, GC sweeps, snapshot copies) keep it on the stack instead of
// allocating one per traversal.
func (m *Map[V]) Iter() Iterator[V] { return Iterator[V]{m: m} }

// First positions at the smallest key.
func (it *Iterator[V]) First() { it.cur = it.m.head[0] }

// SeekGE positions at the first key >= key.
func (it *Iterator[V]) SeekGE(key []byte) { it.cur = it.m.findGE(key, nil) }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator[V]) Valid() bool { return it.cur != 0 }

// Next advances to the following entry.
func (it *Iterator[V]) Next() { it.cur = it.m.next(it.cur, 0) }

// Key returns the current key. The slice aliases the arena: it must not be
// modified, and it stays valid for as long as it is held.
func (it *Iterator[V]) Key() []byte { return recKey(it.m.rec(it.cur)) }

// Ptr returns the address of the current value.
func (it *Iterator[V]) Ptr() *V { return it.m.cell(le.Uint32(it.m.rec(it.cur))) }

// height returns the current node's tower height.
func (it *Iterator[V]) height() int { return recHeight(it.m.rec(it.cur)) }
