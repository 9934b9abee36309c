// Package mvcc implements the multi-version concurrency control storage
// engine used by every replica in mrdb.
//
// The engine stores, per user key, a chain of committed versions ordered by
// descending HLC timestamp plus at most one provisional version — a write
// intent — belonging to an in-flight transaction. Reads are served at a
// snapshot timestamp and report the conflicts that drive the transaction
// protocol upstairs: write intents (locks), reads within the uncertainty
// interval (paper §6.1), and write-too-old conditions.
package mvcc

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"mrdb/internal/hlc"
	"mrdb/internal/skl"
	"mrdb/internal/wire"
)

// Key is a user key in the monolithic sorted keyspace.
type Key []byte

// Value is an opaque value; nil marks a deletion tombstone.
type Value []byte

// TxnID identifies a transaction.
type TxnID uint64

// TxnMeta is the subset of transaction state that rides along with writes
// and is stored inside intents.
type TxnMeta struct {
	ID TxnID
	// Key is the transaction's anchor key (where its record lives).
	Key Key
	// Epoch increments on transaction restarts; intents from older epochs
	// are discarded.
	Epoch int32
	// WriteTimestamp is the provisional commit timestamp of the intent.
	WriteTimestamp hlc.Timestamp
}

// TxnStatus describes the resolution of a transaction.
type TxnStatus int8

// Transaction resolutions.
const (
	Pending TxnStatus = iota
	Committed
	Aborted
)

func (s TxnStatus) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Committed:
		return "COMMITTED"
	case Aborted:
		return "ABORTED"
	}
	return "UNKNOWN"
}

// version is one committed value.
type version struct {
	ts  hlc.Timestamp
	val Value
}

// versions is the per-key chain: newest first, plus an optional intent. It
// is the skiplist's value type, so a chain lives in the list's cell: no
// object per key besides the version slice.
type versions struct {
	intent *intentRecord
	vals   []version // sorted by descending ts
}

type intentRecord struct {
	txn TxnMeta
	val Value
}

// WriteIntentError reports that an operation ran into another transaction's
// provisional write (an exclusive lock).
type WriteIntentError struct {
	Key Key
	Txn TxnMeta
}

func (e *WriteIntentError) Error() string {
	return fmt.Sprintf("conflicting intent on %q held by txn %d at %s", e.Key, e.Txn.ID, e.Txn.WriteTimestamp)
}

// WriteTooOldError reports an attempt to write below an existing committed
// value; the writer must retry at ActualTimestamp or higher.
type WriteTooOldError struct {
	Key             Key
	Timestamp       hlc.Timestamp
	ActualTimestamp hlc.Timestamp
}

func (e *WriteTooOldError) Error() string {
	return fmt.Sprintf("write too old on %q: attempted %s, existing %s", e.Key, e.Timestamp, e.ActualTimestamp.Prev())
}

// UncertaintyError reports a read that observed a value above its read
// timestamp but within its uncertainty interval. The reader must ratchet its
// timestamp to ValueTimestamp and refresh (paper §6.1).
type UncertaintyError struct {
	Key            Key
	ReadTimestamp  hlc.Timestamp
	ValueTimestamp hlc.Timestamp
	// FutureTime is true when the value's timestamp leads the reader's
	// local clock, i.e. it was written by a future-time (global)
	// transaction: after refreshing, the reader must also commit-wait.
	FutureTime bool
}

func (e *UncertaintyError) Error() string {
	return fmt.Sprintf("read on %q at %s within uncertainty of value at %s", e.Key, e.ReadTimestamp, e.ValueTimestamp)
}

// Engine is a single replica's MVCC store. It is not internally
// synchronized: all access happens under the simulator's cooperative
// scheduler (and, in the distributed layer, under range latches).
type Engine struct {
	list *skl.Map[versions]
	// stats
	intents int
	// freeIntents recycles resolved intent records: the write path of every
	// transactional workload allocates one per intent otherwise.
	freeIntents []*intentRecord
}

// NewEngine returns an empty engine whose internal skiplist derives tower
// heights from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{list: skl.NewMap[versions](seed)}
}

// IntentCount returns the number of outstanding write intents.
func (e *Engine) IntentCount() int { return e.intents }

func (e *Engine) chain(key Key) *versions { return e.list.Ptr(key) }

func (e *Engine) chainOrCreate(key Key) *versions {
	c, _ := e.list.Upsert(key)
	return c
}

// prependVersion pushes v onto the front of the chain in place, reusing the
// chain's backing array instead of allocating a fresh slice per committed
// write (version chains are newest-first).
func prependVersion(c *versions, v version) {
	c.vals = append(c.vals, version{})
	copy(c.vals[1:], c.vals[:len(c.vals)-1])
	c.vals[0] = v
}

// GetOptions tunes visibility for Get and Scan.
type GetOptions struct {
	// Txn, if non-nil, identifies the reading transaction; its own intent
	// is visible to it.
	Txn *TxnMeta
	// UncertaintyLimit is the exclusive upper bound of the reader's
	// uncertainty interval (read timestamp + max_clock_offset). Values in
	// (ReadTS, UncertaintyLimit] raise UncertaintyError. Zero disables
	// uncertainty checking (used by stale reads, §5.3, whose timestamps
	// never change).
	UncertaintyLimit hlc.Timestamp
	// LocalLimit, if set, is the reader's local HLC reading; used only to
	// flag uncertain values as future-time.
	LocalLimit hlc.Timestamp
}

// Get returns the newest value with timestamp <= ts, its timestamp, and any
// protocol conflict.
func (e *Engine) Get(key Key, ts hlc.Timestamp, opts GetOptions) (Value, hlc.Timestamp, error) {
	c := e.chain(key)
	if c == nil {
		return nil, hlc.Timestamp{}, nil
	}
	return e.getFromChain(key, c, ts, opts)
}

func (e *Engine) getFromChain(key Key, c *versions, ts hlc.Timestamp, opts GetOptions) (Value, hlc.Timestamp, error) {
	if c.intent != nil {
		in := c.intent
		own := opts.Txn != nil && opts.Txn.ID == in.txn.ID
		if own {
			// Read-your-writes: the txn sees its own intent if it
			// is from the current epoch.
			if in.txn.Epoch == opts.Txn.Epoch {
				return in.val, in.txn.WriteTimestamp, nil
			}
			// Stale epoch intents are invisible.
		} else {
			if in.txn.WriteTimestamp.LessEq(ts) {
				// Locked below our read timestamp: must wait.
				return nil, hlc.Timestamp{}, &WriteIntentError{Key: append(Key(nil), key...), Txn: in.txn}
			}
			if !opts.UncertaintyLimit.IsEmpty() && in.txn.WriteTimestamp.LessEq(opts.UncertaintyLimit) {
				// An uncertain intent also blocks: it may commit
				// at a timestamp we would have to observe.
				return nil, hlc.Timestamp{}, &WriteIntentError{Key: append(Key(nil), key...), Txn: in.txn}
			}
		}
	}
	// Uncertainty: any committed value in (ts, uncertaintyLimit]?
	if !opts.UncertaintyLimit.IsEmpty() {
		for _, v := range c.vals {
			if v.ts.LessEq(ts) {
				break
			}
			if v.ts.LessEq(opts.UncertaintyLimit) {
				return nil, hlc.Timestamp{}, &UncertaintyError{
					Key:            append(Key(nil), key...),
					ReadTimestamp:  ts,
					ValueTimestamp: v.ts,
					FutureTime:     !opts.LocalLimit.IsEmpty() && opts.LocalLimit.Less(v.ts),
				}
			}
		}
	}
	for _, v := range c.vals {
		if v.ts.LessEq(ts) {
			if v.val == nil {
				return nil, v.ts, nil // tombstone
			}
			return v.val, v.ts, nil
		}
	}
	return nil, hlc.Timestamp{}, nil
}

// KeyValue pairs a key with the value visible at some read timestamp.
type KeyValue struct {
	Key       Key
	Value     Value
	Timestamp hlc.Timestamp
}

// Scan returns up to max visible key/value pairs in [start, end). A zero max
// means no limit. The first conflict aborts the scan. Returned keys and
// values alias the engine's internal storage (which is never mutated after
// insert) and must not be modified by callers.
func (e *Engine) Scan(start, end Key, ts hlc.Timestamp, max int, opts GetOptions) ([]KeyValue, error) {
	var out []KeyValue
	it := e.list.Iter()
	for it.SeekGE(start); it.Valid(); it.Next() {
		key := it.Key()
		if end != nil && string(key) >= string(end) {
			break
		}
		val, vts, err := e.getFromChain(key, it.Ptr(), ts, opts)
		if err != nil {
			return nil, err
		}
		if val != nil {
			out = append(out, KeyValue{Key: key, Value: val, Timestamp: vts})
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out, nil
}

// Put writes value at ts. When txn is non-nil the write is provisional (an
// intent); otherwise it commits immediately. Put enforces the write-too-old
// rule against newer committed values and surfaces conflicting intents.
// It returns the timestamp actually written (>= ts after conflicts).
func (e *Engine) Put(key Key, value Value, ts hlc.Timestamp, txn *TxnMeta) (hlc.Timestamp, error) {
	c := e.chainOrCreate(key)
	if c.intent != nil {
		in := c.intent
		if txn == nil || in.txn.ID != txn.ID {
			return hlc.Timestamp{}, &WriteIntentError{Key: append(Key(nil), key...), Txn: in.txn}
		}
		// Replacing our own intent (same or newer epoch).
		if in.txn.Epoch > txn.Epoch {
			return hlc.Timestamp{}, fmt.Errorf("mvcc: intent from future epoch %d > %d", in.txn.Epoch, txn.Epoch)
		}
	}
	// Write-too-old: cannot write below an existing committed version.
	if len(c.vals) > 0 && ts.LessEq(c.vals[0].ts) {
		return hlc.Timestamp{}, &WriteTooOldError{
			Key:             append(Key(nil), key...),
			Timestamp:       ts,
			ActualTimestamp: c.vals[0].ts.Next(),
		}
	}
	if txn != nil {
		meta := *txn
		meta.WriteTimestamp = ts
		if c.intent != nil {
			// Replacing our own intent: reuse the record.
			c.intent.txn, c.intent.val = meta, value
			return ts, nil
		}
		e.intents++
		if n := len(e.freeIntents); n > 0 {
			in := e.freeIntents[n-1]
			e.freeIntents[n-1] = nil
			e.freeIntents = e.freeIntents[:n-1]
			in.txn, in.val = meta, value
			c.intent = in
		} else {
			c.intent = &intentRecord{txn: meta, val: value}
		}
		return ts, nil
	}
	prependVersion(c, version{ts: ts, val: value})
	return ts, nil
}

// Delete writes a tombstone; semantics match Put.
func (e *Engine) Delete(key Key, ts hlc.Timestamp, txn *TxnMeta) (hlc.Timestamp, error) {
	return e.Put(key, nil, ts, txn)
}

// GetIntent returns the intent on key, if any.
func (e *Engine) GetIntent(key Key) (TxnMeta, bool) {
	c := e.chain(key)
	if c == nil || c.intent == nil {
		return TxnMeta{}, false
	}
	return c.intent.txn, true
}

// ResolveIntent finalizes the intent held by txnID on key. For Committed the
// provisional value becomes a committed version at commitTS; for Aborted it
// is dropped. Resolving a non-existent or different-transaction intent is a
// no-op (resolution is idempotent, as in the real system).
func (e *Engine) ResolveIntent(key Key, txnID TxnID, status TxnStatus, commitTS hlc.Timestamp) error {
	if status == Pending {
		return fmt.Errorf("mvcc: cannot resolve intent to PENDING")
	}
	c := e.chain(key)
	if c == nil || c.intent == nil || c.intent.txn.ID != txnID {
		return nil
	}
	in := c.intent
	c.intent = nil
	e.intents--
	if status == Aborted {
		e.recycleIntent(in)
		return nil
	}
	ts := commitTS
	if ts.IsEmpty() {
		ts = in.txn.WriteTimestamp
	}
	if len(c.vals) > 0 && ts.LessEq(c.vals[0].ts) {
		return fmt.Errorf("mvcc: commit at %s below existing version %s", ts, c.vals[0].ts)
	}
	prependVersion(c, version{ts: ts, val: in.val})
	e.recycleIntent(in)
	return nil
}

// maxFreeIntents caps the intent-record freelist.
const maxFreeIntents = 64

// recycleIntent returns a detached intent record to the freelist. Only the
// record itself is recycled; the value slice it pointed at may still be
// referenced by readers and is never touched.
func (e *Engine) recycleIntent(in *intentRecord) {
	if len(e.freeIntents) >= maxFreeIntents {
		return
	}
	in.txn, in.val = TxnMeta{}, nil
	e.freeIntents = append(e.freeIntents, in)
}

// GC removes committed versions older than threshold on every key, keeping
// at least the newest version (so reads at or above threshold still see
// data). It returns the number of versions collected.
func (e *Engine) GC(threshold hlc.Timestamp) int {
	collected := 0
	it := e.list.Iter()
	for it.First(); it.Valid(); it.Next() {
		c := it.Ptr()
		// Find the newest version <= threshold; everything older than it
		// is invisible to any read at >= threshold.
		for i, v := range c.vals {
			if v.ts.LessEq(threshold) {
				if cut := len(c.vals) - (i + 1); cut > 0 {
					collected += cut
					c.vals = c.vals[:i+1]
				}
				break
			}
		}
	}
	return collected
}

// HasNewerVersion reports whether key has a committed version or a foreign
// intent in (fromTS, toTS]. It backs transaction refreshes (paper §6.1):
// a refresh from fromTS to toTS succeeds only if nothing was written in
// between that the transaction would have had to observe.
func (e *Engine) HasNewerVersion(key Key, fromTS, toTS hlc.Timestamp, ignoreTxn TxnID) bool {
	c := e.chain(key)
	return c != nil && c.hasNewer(fromTS, toTS, ignoreTxn)
}

func (c *versions) hasNewer(fromTS, toTS hlc.Timestamp, ignoreTxn TxnID) bool {
	if c.intent != nil && c.intent.txn.ID != ignoreTxn {
		its := c.intent.txn.WriteTimestamp
		if fromTS.Less(its) && its.LessEq(toTS) {
			return true
		}
	}
	for _, v := range c.vals {
		if v.ts.LessEq(fromTS) {
			break
		}
		if v.ts.LessEq(toTS) {
			return true
		}
	}
	return false
}

// HasNewerVersionInSpan applies HasNewerVersion to every key in
// [start, end), backing span refreshes for scans.
func (e *Engine) HasNewerVersionInSpan(start, end Key, fromTS, toTS hlc.Timestamp, ignoreTxn TxnID) bool {
	it := e.list.Iter()
	for it.SeekGE(start); it.Valid(); it.Next() {
		if end != nil && string(it.Key()) >= string(end) {
			break
		}
		if it.Ptr().hasNewer(fromTS, toTS, ignoreTxn) {
			return true
		}
	}
	return false
}

// MinIntentTS returns the lowest intent timestamp in [start, end), if any.
// It backs bounded-staleness negotiation (paper §5.3.2).
func (e *Engine) MinIntentTS(start, end Key) (hlc.Timestamp, bool) {
	var minTS hlc.Timestamp
	found := false
	it := e.list.Iter()
	for it.SeekGE(start); it.Valid(); it.Next() {
		if end != nil && string(it.Key()) >= string(end) {
			break
		}
		c := it.Ptr()
		if c.intent != nil {
			ts := c.intent.txn.WriteTimestamp
			if !found || ts.Less(minTS) {
				minTS, found = ts, true
			}
		}
	}
	return minTS, found
}

// CopyTo deep-copies all data (committed versions and intents) in
// [start, end) into dst; the substrate of range splits.
func (e *Engine) CopyTo(dst *Engine, start, end Key) {
	it := e.list.Iter()
	for it.SeekGE(start); it.Valid(); it.Next() {
		if end != nil && string(it.Key()) >= string(end) {
			break
		}
		src := it.Ptr()
		cp := versions{vals: make([]version, len(src.vals))}
		for i, v := range src.vals {
			// bytes.Clone, not append: an empty value must not come out
			// nil, which is a tombstone.
			cp.vals[i] = version{ts: v.ts, val: bytes.Clone(v.val)}
		}
		if src.intent != nil {
			cp.intent = &intentRecord{txn: src.intent.txn, val: bytes.Clone(src.intent.val)}
			dst.intents++
		}
		if old, replaced := dst.list.Set(it.Key(), cp); replaced && old.intent != nil {
			dst.intents--
		}
	}
}

// SnapshotVersion is one committed version in a serialized engine snapshot.
type SnapshotVersion struct {
	Ts  hlc.Timestamp
	Val Value
}

// SnapshotIntent is a provisional write in a serialized engine snapshot.
type SnapshotIntent struct {
	Txn TxnMeta
	Val Value
}

// SnapshotKey is one key's full version chain in a serialized snapshot.
type SnapshotKey struct {
	Key      Key
	Versions []SnapshotVersion
	Intent   *SnapshotIntent
}

// Snapshot returns the engine's entire contents as a flat, sorted, deep
// copy. Nothing durable uses it — checkpoints and Raft snapshots carry
// AppendSnapshot's bytes — it remains for tests and the benchmark's probe.
func (e *Engine) Snapshot() []SnapshotKey {
	out := make([]SnapshotKey, 0, e.list.Len())
	it := e.list.Iter()
	for it.First(); it.Valid(); it.Next() {
		src := it.Ptr()
		sk := SnapshotKey{Key: append(Key(nil), it.Key()...)}
		// bytes.Clone, as in CopyTo: an empty value must stay empty, not
		// become a nil tombstone.
		if len(src.vals) > 0 {
			sk.Versions = make([]SnapshotVersion, len(src.vals))
			for i, v := range src.vals {
				sk.Versions[i] = SnapshotVersion{Ts: v.ts, Val: bytes.Clone(v.val)}
			}
		}
		if src.intent != nil {
			sk.Intent = &SnapshotIntent{Txn: src.intent.txn, Val: bytes.Clone(src.intent.val)}
		}
		out = append(out, sk)
	}
	return out
}

// AppendTxnMeta appends t's wire form, which the engine stream and the kv
// layer's WAL records share; DecodeTxnMeta reads it back.
func AppendTxnMeta(dst []byte, t *TxnMeta) []byte {
	dst = wire.AppendBytes(binary.AppendUvarint(dst, uint64(t.ID)), t.Key)
	return wire.AppendTimestamp(binary.AppendVarint(dst, int64(t.Epoch)), t.WriteTimestamp)
}

// DecodeTxnMeta reads a TxnMeta written by AppendTxnMeta.
func DecodeTxnMeta(d *wire.Decoder) TxnMeta {
	return TxnMeta{ID: TxnID(d.Uvarint()), Key: bytes.Clone(d.Bytes()), Epoch: int32(d.Varint()), WriteTimestamp: d.Timestamp()}
}

// AppendSnapshot appends the engine's entire contents to dst as one byte
// stream read straight off the skiplist: the key count, then per key, in
// key order, its bytes, its committed versions newest first (count, then
// timestamp and value each) and a flag byte followed, when set, by the
// intent's TxnMeta and value. The stream is what a checkpoint stores and a
// Raft snapshot ships; equal engines produce equal bytes.
func (e *Engine) AppendSnapshot(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.list.Len()))
	it := e.list.Iter()
	for it.First(); it.Valid(); it.Next() {
		c := it.Ptr()
		dst = binary.AppendUvarint(wire.AppendBytes(dst, it.Key()), uint64(len(c.vals)))
		for _, v := range c.vals {
			dst = wire.AppendBytes(wire.AppendTimestamp(dst, v.ts), v.val)
		}
		if c.intent == nil {
			dst = append(dst, 0)
		} else {
			dst = wire.AppendBytes(AppendTxnMeta(append(dst, 1), &c.intent.txn), c.intent.val)
		}
	}
	return dst
}

// LoadSnapshot populates the engine from a stream written by AppendSnapshot,
// which it must consume exactly. The engine must be freshly constructed
// (recovery builds a new Engine per replica rather than clearing one in
// place) and is to be discarded if an error is returned. Keys go to the
// skiplist straight from the stream (it keeps its own copy); values are
// copied out, so data is not retained.
func (e *Engine) LoadSnapshot(data []byte) error {
	d := wire.NewDecoder(data)
	// Counts are only trusted as far as the input lasts: a corrupt one ends
	// its loop at the first short read.
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		key := d.Bytes()
		var c versions
		for nv := d.Uvarint(); nv > 0 && d.Err() == nil; nv-- {
			c.vals = append(c.vals, version{ts: d.Timestamp(), val: bytes.Clone(d.Bytes())})
		}
		if d.Byte() != 0 {
			c.intent = &intentRecord{txn: DecodeTxnMeta(d), val: bytes.Clone(d.Bytes())}
			e.intents++
		}
		e.list.Set(key, c)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("mvcc: engine snapshot: %w", err)
	}
	return nil
}
