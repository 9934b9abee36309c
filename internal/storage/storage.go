// Package storage simulates per-node durable disks for mrdb.
//
// Production CockroachDB survives node failures because every Raft state
// transition is forced to disk before the node makes promises to its peers
// (paper §5.1: ranges recover from persisted Raft state after a crash). The
// simulator historically cheated: a "crashed" node kept all of its state in
// memory and restarted fully intact. This package supplies the missing
// layer: a Disk per node holding checksummed write-ahead logs and atomic
// checkpoint blobs, with fsync latency charged on the virtual clock and
// deterministic fault injection (torn tail on crash, bit-flip corruption
// for tests).
//
// Durability model:
//
//   - WAL appends land in a volatile tail; Sync makes the tail durable
//     after FsyncDelay of virtual time and then runs the caller's callback.
//     Syncs are FIFO: when a callback fires, every byte appended before
//     that Sync call is durable.
//   - Crash discards the volatile tail. At most one partially-written
//     record (a prefix of the first un-synced record, sized by the disk's
//     own deterministic RNG) survives past the durable prefix — the classic
//     torn write. Recovery truncates it cleanly.
//   - Blobs (checkpoints, node metadata) are written atomically and are
//     immediately durable, modeling write-to-temp + fsync + rename.
//   - Corruption below the durable prefix (bit rot, injected by tests) is
//     detected by per-record CRC32 and fails recovery loudly instead of
//     replaying garbage.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

// DefaultFsyncDelay is the virtual-time cost of one fsync, tuned to a fast
// local SSD so that durability is visible in latency histograms without
// dominating WAN round trips.
const DefaultFsyncDelay = 250 * sim.Microsecond

// Disk is one node's simulated durable device. All state lives in memory,
// but the Disk distinguishes volatile bytes (appended, not yet synced) from
// durable bytes (survive Crash), so a node rebuilt from its Disk sees
// exactly what a real machine would find after power loss.
type Disk struct {
	sim     *sim.Simulation
	metrics *obs.Registry

	// rng drives torn-tail sizing. It is the disk's own generator, seeded
	// at construction, so a torn write draws from no other consumer's
	// stream.
	rng *rand.Rand

	// FsyncDelay is charged per Sync on the virtual clock.
	FsyncDelay sim.Duration

	wals  map[string]*WAL
	blobs map[string][]byte

	// incarnation is bumped on Crash; in-flight fsyncs from a previous
	// incarnation never complete (their callbacks are dropped).
	incarnation uint64
}

// NewDisk returns an empty disk bound to s. The disk's fault randomness comes
// from seed alone (a cluster draws it from its "storage/disk" stream);
// metrics may be nil.
func NewDisk(s *sim.Simulation, seed int64, metrics *obs.Registry) *Disk {
	return &Disk{
		sim:        s,
		metrics:    metrics,
		rng:        rand.New(rand.NewSource(seed)),
		FsyncDelay: DefaultFsyncDelay,
		wals:       map[string]*WAL{},
		blobs:      map[string][]byte{},
	}
}

// Metrics returns the registry this disk reports into (possibly nil; the
// obs API is nil-safe).
func (d *Disk) Metrics() *obs.Registry { return d.metrics }

// WAL returns the named log, creating it empty if needed.
func (d *Disk) WAL(name string) *WAL {
	w, ok := d.wals[name]
	if !ok {
		w = &WAL{disk: d, name: name}
		d.wals[name] = w
	}
	return w
}

// RemoveWAL deletes the named log entirely (replica removed from this node).
func (d *Disk) RemoveWAL(name string) { delete(d.wals, name) }

// WALNames returns all log names in sorted order.
func (d *Disk) WALNames() []string {
	names := make([]string, 0, len(d.wals))
	for n := range d.wals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PutBlob atomically replaces the named blob; the write is immediately
// durable (temp file + fsync + rename). The disk takes ownership of data:
// the caller builds each blob in a buffer of its own and must not touch it
// afterwards (a checkpoint is the size of its range, so a copy here would
// double what every checkpoint allocates).
func (d *Disk) PutBlob(name string, data []byte) {
	d.blobs[name] = data
}

// GetBlob returns a copy of the named blob.
func (d *Disk) GetBlob(name string) ([]byte, bool) {
	b, ok := d.blobs[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// DeleteBlob removes the named blob.
func (d *Disk) DeleteBlob(name string) { delete(d.blobs, name) }

// Crash models power loss: every WAL loses its volatile tail except for at
// most one torn record fragment, and in-flight fsyncs never complete. Blobs
// are durable and survive. The disk remains usable — recovery reopens the
// same WALs.
func (d *Disk) Crash() {
	d.incarnation++
	for _, name := range d.WALNames() {
		d.wals[name].crash()
	}
}

// wal record framing: [4B big-endian payload length][4B CRC32(payload)][payload]
const frameHeader = 8

// WAL is an append-only checksummed log on a Disk.
type WAL struct {
	disk *Disk
	name string

	data []byte
	// durableLen is the prefix of data guaranteed to survive Crash.
	durableLen int
	// gen is bumped when the log is rewritten (Reset); it invalidates
	// in-flight syncs against the old contents.
	gen uint64
	// syncs holds the fsyncs in flight, a *syncQueue[T] for the argument
	// type T of their callbacks (see SyncWith).
	syncs any
}

// Append frames and appends one record to the volatile tail. It does not
// block; call Sync to make it durable.
func (w *WAL) Append(payload []byte) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	w.data = append(w.data, hdr[:]...)
	w.data = append(w.data, payload...)
	w.disk.metrics.Counter("storage.wal.appends").Inc()
	w.disk.metrics.Counter("storage.wal.bytes").Add(int64(frameHeader + len(payload)))
}

// Sync makes everything appended so far durable after the disk's fsync
// delay, then calls done (if non-nil). If the disk crashes or the log is
// rewritten before the fsync completes, done never runs — exactly like an
// fsync that never returned.
func (w *WAL) Sync(done func()) {
	SyncWith(w, runIfSet, done)
}

func runIfSet(f func()) {
	if f != nil {
		f()
	}
}

// SyncWith is Sync for a callback that takes an argument: done(arg) runs
// once the fsync completes, under the same rules. The sync waits in a queue
// the log owns, and its one scheduled event runs a method bound once per
// queue, so a caller whose done is a plain function allocates nothing of its
// own per sync. Syncs complete in the order their delays expire, which is
// not the order they started in if FsyncDelay changes between them; each
// still makes durable everything appended before it started.
func SyncWith[T any](w *WAL, done func(T), arg T) {
	q, ok := w.syncs.(*syncQueue[T])
	if !ok {
		// A log syncs with one callback type. A sync with another starts a
		// queue of its own, and the old one still completes its syncs:
		// each event completes a sync of the queue that scheduled it.
		q = &syncQueue[T]{w: w}
		q.fire = q.complete
		w.syncs = q
	}
	delay := max(w.disk.FsyncDelay, 0)
	q.push(pendingSync[T]{
		due: w.disk.sim.Now().Add(delay), target: len(w.data),
		inc: w.disk.incarnation, gen: w.gen, done: done, arg: arg,
	})
	w.disk.sim.After(delay, q.fire)
}

// pendingSync is one fsync in flight: the log length it makes durable when
// it is due, the incarnation and generation it started in, and the callback
// it runs then.
type pendingSync[T any] struct {
	due      sim.Time
	target   int
	inc, gen uint64
	done     func(T)
	arg      T
}

// syncQueue holds a log's fsyncs in flight in the order they are due, those
// due at one instant in the order they started. That is the order their
// events run in, so the event of each runs complete, which completes the
// first.
type syncQueue[T any] struct {
	w       *WAL
	pending []pendingSync[T] // from head
	head    int
	fire    func() // q.complete, bound once
}

// push queues s behind every sync due no later than it.
func (q *syncQueue[T]) push(s pendingSync[T]) {
	if q.head > 0 && len(q.pending) == cap(q.pending) {
		n := copy(q.pending, q.pending[q.head:])
		clear(q.pending[n:])
		q.pending, q.head = q.pending[:n], 0
	}
	q.pending = append(q.pending, s)
	for i := len(q.pending) - 1; i > q.head && q.pending[i-1].due > s.due; i-- {
		q.pending[i-1], q.pending[i] = q.pending[i], q.pending[i-1]
	}
}

// complete takes the first sync off the queue and completes it, unless a
// crash or a rewrite of the log since it started dropped it.
func (q *syncQueue[T]) complete() {
	s := q.pending[q.head]
	q.pending[q.head] = pendingSync[T]{}
	if q.head++; q.head == len(q.pending) {
		q.pending, q.head = q.pending[:0], 0
	}
	w := q.w
	if w.disk.incarnation != s.inc || w.gen != s.gen {
		return
	}
	if s.target > w.durableLen {
		w.durableLen = s.target
	}
	w.disk.metrics.Counter("storage.wal.fsyncs").Inc()
	s.done(s.arg)
}

// ResetDurable atomically replaces the log's contents with the given
// records, immediately durable (new file + fsync + rename, the standard
// log-rotation idiom). Used for checkpoint truncation and snapshot install.
func (w *WAL) ResetDurable(payloads [][]byte) {
	w.gen++
	w.data = nil
	w.durableLen = 0
	for _, p := range payloads {
		w.Append(p)
	}
	w.durableLen = len(w.data)
	if len(payloads) > 0 {
		w.disk.metrics.Counter("storage.wal.fsyncs").Inc()
	}
}

// Size returns the total byte length including the volatile tail.
func (w *WAL) Size() int { return len(w.data) }

// DurableSize returns the byte length guaranteed to survive Crash.
func (w *WAL) DurableSize() int { return w.durableLen }

// FlipBit corrupts the log in place (testing hook for bit rot). Flipping a
// bit below the durable prefix models silent media corruption.
func (w *WAL) FlipBit(byteOff int, bit uint) {
	if byteOff >= 0 && byteOff < len(w.data) {
		w.data[byteOff] ^= 1 << (bit % 8)
	}
}

// crash discards the volatile tail, leaving at most a prefix of the first
// un-synced record behind (the torn write). The fragment is strictly
// shorter than the full frame, so recovery always detects and discards it.
func (w *WAL) crash() {
	w.gen++
	if len(w.data) <= w.durableLen {
		return
	}
	lost := w.data[w.durableLen:]
	w.data = w.data[:w.durableLen]
	if len(lost) < frameHeader {
		// Not even a full header was in flight; nothing survives.
		return
	}
	frame := frameHeader + int(binary.BigEndian.Uint32(lost[0:4]))
	if frame > len(lost) {
		frame = len(lost)
	}
	fragLen := w.disk.rng.Intn(frame) // 0 <= fragLen < frame: always torn
	w.data = append(w.data, lost[:fragLen]...)
}

// ErrCorrupt reports a checksum failure below the durable prefix —
// irrecoverable media corruption, as opposed to a torn tail.
type ErrCorrupt struct {
	WAL    string
	Offset int
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("storage: wal %q: CRC mismatch at durable offset %d (corruption)", e.WAL, e.Offset)
}

// Records parses the log and returns every intact record payload in append
// order. A malformed or checksum-failing record at or beyond the durable
// prefix is a torn tail: it and everything after it are truncated away and
// parsing succeeds. The same failure below the durable prefix is corruption
// and returns *ErrCorrupt — recovery must fail loudly rather than replay
// garbage.
func (w *WAL) Records() ([][]byte, error) {
	var out [][]byte
	off := 0
	for off < len(w.data) {
		ok := false
		if len(w.data)-off >= frameHeader {
			ln := int(binary.BigEndian.Uint32(w.data[off : off+4]))
			sum := binary.BigEndian.Uint32(w.data[off+4 : off+8])
			if off+frameHeader+ln <= len(w.data) {
				payload := w.data[off+frameHeader : off+frameHeader+ln]
				if crc32.ChecksumIEEE(payload) == sum {
					out = append(out, append([]byte(nil), payload...))
					off += frameHeader + ln
					ok = true
				}
			}
		}
		if !ok {
			if off < w.durableLen {
				return nil, &ErrCorrupt{WAL: w.name, Offset: off}
			}
			// Torn tail: discard it so the log is clean going forward.
			w.data = w.data[:off]
			if w.durableLen > off {
				w.durableLen = off
			}
			break
		}
	}
	return out, nil
}
