package sql

import (
	"fmt"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
)

// BulkLoadRow writes a row directly into the engines of every replica of
// the affected ranges at the given timestamp, bypassing transactions and
// consensus — the moral equivalent of IMPORT. It must only be used during
// benchmark/test setup, before measurement and before any replica
// relocation (replicas added later replay the Raft log, which does not
// contain bulk-loaded data).
func (s *Session) BulkLoadRow(t *Table, colVals map[string]Datum, ts hlc.Timestamp) error {
	vals := map[ColumnID]Datum{}
	for name, v := range colVals {
		c, ok := t.Column(name)
		if !ok {
			return fmt.Errorf("sql: unknown column %q", name)
		}
		vals[c.ID] = v
	}
	// Computed columns.
	for _, c := range t.Columns {
		if c.Computed != nil {
			v, err := s.evalExpr(c.Computed, s.rowCtx(t, vals))
			if err != nil {
				return err
			}
			vals[c.ID] = v
		}
	}
	region, err := rowRegion(t, vals)
	if err != nil {
		return err
	}
	for _, e := range s.rowKVs(nil, t, region, vals) {
		if err := s.bulkPut(e.Key, e.Value, ts); err != nil {
			return err
		}
	}
	return nil
}

// bulkPut applies one KV pair to all replicas of its range.
func (s *Session) bulkPut(key mvcc.Key, val mvcc.Value, ts hlc.Timestamp) error {
	desc, err := s.Cluster.Catalog.Lookup(key)
	if err != nil {
		return err
	}
	for _, id := range desc.Replicas() {
		st, ok := s.Cluster.Stores[id]
		if !ok {
			return fmt.Errorf("sql: no store on node %d", id)
		}
		r, ok := st.Replica(desc.RangeID)
		if !ok {
			return fmt.Errorf("sql: replica of r%d missing on n%d", desc.RangeID, id)
		}
		if _, err := r.EngineForBulkLoad().Put(key, val, ts, nil); err != nil {
			return err
		}
	}
	return nil
}
