package txn

import (
	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/sim"
)

// StartResolve finishes t and starts its intent resolution to status, as a
// commit or an abort does once its EndTxn returned, but without the EndTxn
// before it: two calls in a row queue two resolutions at one instant.
func (t *Txn) StartResolve(p *sim.Proc, status mvcc.TxnStatus, commitTS hlc.Timestamp) {
	t.finished = true
	t.asyncResolve(p, status, commitTS)
}

// WriteTimestamp returns the transaction's provisional commit timestamp.
func (t *Txn) WriteTimestamp() hlc.Timestamp { return t.kv.Meta.WriteTimestamp }
