package kv

import (
	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
)

// TimestampCache remembers the maximum timestamp at which each key was
// read, so that writes can never invalidate a served read: a write to key k
// is forced above tscache[k] (paper §6.1: "leaseholders also advance the
// timestamp of writes above the timestamp of any previously served reads").
//
// Entries remember which transaction performed the read so that a
// transaction writing a key it previously read itself is not pushed above
// its own read timestamp (otherwise every read-modify-write would force a
// commit-time refresh).
//
// A low-water mark covers all keys; it is ratcheted on lease transfers so a
// new leaseholder conservatively assumes everything was read at the
// transfer timestamp, and by the store loop to the closed timestamp the
// replica has issued, below which no write can land anyway.
type TimestampCache struct {
	lowWater hlc.Timestamp
	// reads holds entries by value, so a key whose entry the floor pruned
	// costs only its key string when it is read again.
	reads map[string]tsEntry
}

type tsEntry struct {
	// key is the entry's own map key: an update re-stores the entry under
	// it, where converting the caller's []byte again would allocate.
	key string
	ts  hlc.Timestamp
	// txn is the reader; zero when unknown or when multiple transactions
	// read at the same timestamp (no self-exemption then).
	txn mvcc.TxnID
}

// NewTimestampCache returns a cache with the given low-water mark.
func NewTimestampCache(lowWater hlc.Timestamp) *TimestampCache {
	return &TimestampCache{lowWater: lowWater, reads: map[string]tsEntry{}}
}

// RecordRead notes a read of key at ts by txn (0 for non-transactional).
func (c *TimestampCache) RecordRead(key mvcc.Key, ts hlc.Timestamp, txn mvcc.TxnID) {
	if ts.LessEq(c.lowWater) {
		return
	}
	cur, ok := c.reads[string(key)]
	switch {
	case !ok:
		k := string(key)
		c.reads[k] = tsEntry{key: k, ts: ts, txn: txn}
	case cur.ts.Less(ts):
		cur.ts, cur.txn = ts, txn
		c.reads[cur.key] = cur
	case cur.ts.Equal(ts) && cur.txn != txn:
		// Two readers at the same timestamp: nobody gets an exemption.
		cur.txn = 0
		c.reads[cur.key] = cur
	}
}

// RecordReadSpan notes a scan over [start, end) at ts by conservatively
// ratcheting the cache-wide low-water mark (span-precision is traded for
// simplicity; ranges in mrdb are small).
func (c *TimestampCache) RecordReadSpan(start, end mvcc.Key, ts hlc.Timestamp) {
	if c.lowWater.Less(ts) {
		c.lowWater = ts
	}
}

// MaxRead returns the maximum read timestamp recorded for key and whether
// that read belongs to writer itself (in which case the writer may write AT
// the timestamp rather than above it).
func (c *TimestampCache) MaxRead(key mvcc.Key, writer mvcc.TxnID) (hlc.Timestamp, bool) {
	ts := c.lowWater
	own := false
	if e, ok := c.reads[string(key)]; ok && ts.Less(e.ts) {
		ts = e.ts
		own = writer != 0 && e.txn == writer
	}
	return ts, own
}

// SetLowWater ratchets the floor (never backwards) and drops the entries
// it covers.
func (c *TimestampCache) SetLowWater(ts hlc.Timestamp) {
	if c.lowWater.Less(ts) {
		c.lowWater = ts
		// Entries at or below the floor are redundant.
		for k, e := range c.reads {
			if e.ts.LessEq(ts) {
				delete(c.reads, k)
			}
		}
	}
}
