package kv

import "mrdb/internal/mvcc"

// Records returns how many transaction records the registry holds.
func (r *TxnRegistry) Records() int { return len(r.records) }

// Holds reports whether the registry holds id's record.
func (r *TxnRegistry) Holds(id mvcc.TxnID) bool {
	_, ok := r.records[id]
	return ok
}

// LockHolder returns the transaction holding key's unreplicated lock on
// this replica, zero for none.
func (r *Replica) LockHolder(key mvcc.Key) mvcc.TxnID {
	return r.keys.entries[string(key)].holder
}
