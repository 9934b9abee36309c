package kv

import "mrdb/internal/mvcc"

// Records returns how many transaction records the registry holds.
func (r *TxnRegistry) Records() int { return len(r.records) }

// Holds reports whether the registry holds id's record.
func (r *TxnRegistry) Holds(id mvcc.TxnID) bool {
	_, ok := r.records[id]
	return ok
}
