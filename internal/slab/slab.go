// Package slab carves structs that are written once out of shared chunks.
//
// A struct that others may still read after its writer is done with it — a
// request a late evaluation reads, a Raft command a follower's log shares, a
// version node a reader walks, a future a waiter holds — cannot be put back
// and refilled, or the late reader would see another owner's contents. An Of
// therefore only grows: it hands out each struct once, from its current
// chunk, and starts a new chunk when that one is used up, never refilling
// one. A chunk is one heap object, so n structs cost the collector about one
// object per chunk instead of n; the chunk lives while any struct carved
// from it is reachable.
package slab

import "unsafe"

// maxChunkBytes caps a chunk's size. Chunks double from a few structs, so a
// short-lived owner stays small, until they reach the cap, so a long-lived
// owner's chunk that one survivor pins (the last command a Raft log keeps, a
// version a cold key keeps) holds at most this much beside it.
const maxChunkBytes = 8 << 10

// Of hands out zeroed structs of type T that no one has been handed before.
// The zero Of is ready to use.
type Of[T any] struct {
	free []T
	next int // the size of the next chunk
}

// Give makes first the chunk s hands out from before it makes one of its
// own: an owner that usually needs a struct or two keeps them inline, in a
// field of its own, and carves its first ones from there. Give must come
// before the first Take, and first must be zeroed and no one else's. Once a
// Take needs more than first has left, s starts a chunk of its own and never
// returns to first.
func (s *Of[T]) Give(first []T) {
	s.free = first[:len(first):len(first)]
}

// Take returns n zeroed structs no one has been handed before, contiguous,
// with their capacity clipped so appending to the result cannot reach
// another caller's structs.
func (s *Of[T]) Take(n int) []T {
	return s.take(n, perChunk[T]())
}

// perChunk is how many structs of type T a chunk of maxChunkBytes holds.
func perChunk[T any]() int {
	var zero T
	return max(1, maxChunkBytes/max(1, int(unsafe.Sizeof(zero))))
}

// take is Take with chunks of at most limit structs.
func (s *Of[T]) take(n, limit int) []T {
	if len(s.free) < n {
		s.next = min(max(2*s.next, 4), limit)
		s.free = make([]T, max(n, s.next))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// shortChunk caps the chunks of a Short, in structs.
const shortChunk = 128

// Short is an Of whose chunks hold at most shortChunk structs, for structs
// that point into chunks other owners carved (a request's key, a command's
// key list) and an owner that lives long. A chunk lives while any struct
// carved from it does, and keeps alive what all its structs point at, dead
// ones' included: a long-lived owner's full-sized chunk would keep hundreds
// of other owners' chunks alive for one survivor. The zero Short is ready
// to use.
type Short[T any] struct{ of Of[T] }

// Take returns n zeroed structs no one has been handed before, as Of.Take
// does.
func (s *Short[T]) Take(n int) []T {
	return s.of.take(n, min(shortChunk, perChunk[T]()))
}

// New returns one zeroed struct no one has been handed before.
func (s *Of[T]) New() *T {
	return &s.Take(1)[0]
}

// New returns one zeroed struct no one has been handed before.
func (s *Short[T]) New() *T {
	return &s.Take(1)[0]
}

// Copy returns a copy of src carved from s.
func Copy[T any](s *Of[T], src []T) []T {
	out := s.Take(len(src))
	copy(out, src)
	return out
}

// String returns a string of b's bytes carved from s, making no heap object
// of its own (a string(b) conversion makes one per call). The string reads
// its bytes in place (unsafe.String), which is safe only because no one
// writes them after this copy: s hands the carve to no one else and never
// refills it, and String hands out only the string.
func String(s *Of[byte], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(Copy(s, b)), len(b))
}

// eface is the layout of an interface value with no methods: its type word
// and its value word, which points at the value.
type eface struct {
	typ, data unsafe.Pointer
}

// Box returns v as an interface value whose value word points at a slot
// carved from s, an Of or a Short, making no heap object of its own
// (converting v to any makes one per call but for a few small values). The
// slot is written once, here, and s hands it to no one else and never
// refills it, so the value reads as v for as long as the interface lives,
// as a converted one does; the interface keeps its chunk alive. The type
// word comes from boxing T's zero value, which the runtime points at a
// shared zero.
func Box[T string | int64 | float64](s interface{ New() *T }, v T) any {
	slot := s.New()
	*slot = v
	var zero T
	out := any(zero)
	(*eface)(unsafe.Pointer(&out)).data = unsafe.Pointer(slot)
	return out
}
