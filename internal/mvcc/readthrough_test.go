package mvcc

import (
	"errors"
	"testing"

	"mrdb/internal/hlc"
)

// records is a Records over a map; a missing record reads as aborted, as a
// collected one does.
type records map[TxnID]hlc.Timestamp // a zero timestamp: pending

func (r records) Status(id TxnID) (TxnStatus, hlc.Timestamp) {
	cts, ok := r[id]
	switch {
	case !ok:
		return Aborted, hlc.Timestamp{}
	case cts.IsEmpty():
		return Pending, hlc.Timestamp{}
	}
	return Committed, cts
}

// TestReadThroughFinishedIntent: with a lookup of its holder's record, a read
// that would block on another transaction's intent reads it as the version
// its resolution writes: a committed holder's intent is a version at the
// commit timestamp (uncertain below it within the reader's limit, invisible
// past the limit), an aborted or collected holder's intent is absent, and a
// pending holder's blocks as without the lookup. A scan reads the same.
func TestReadThroughFinishedIntent(t *testing.T) {
	const holder = TxnID(7)
	for _, c := range []struct {
		name      string
		recs      Records
		at, limit int64
		val       string // "": nothing visible
		vts       int64
		blocks    bool
		uncertain int64 // the UncertaintyError's value timestamp
	}{
		{name: "no lookup", at: 25, blocks: true},
		{name: "pending", recs: records{holder: {}}, at: 25, blocks: true},
		{name: "committed, read at the commit", recs: records{holder: ts(30)}, at: 30, val: "new", vts: 30},
		{name: "committed, read above the commit", recs: records{holder: ts(30)}, at: 35, val: "new", vts: 30},
		{name: "committed, read below within uncertainty", recs: records{holder: ts(30)}, at: 25, limit: 30, uncertain: 30},
		{name: "committed, read below past uncertainty", recs: records{holder: ts(30)}, at: 25, limit: 29, val: "old", vts: 10},
		{name: "committed past an uncertain intent", recs: records{holder: ts(30)}, at: 15, limit: 25, val: "old", vts: 10},
		{name: "aborted", recs: records{}, at: 25, val: "old", vts: 10},
		{name: "aborted, uncertain intent", recs: records{}, at: 15, limit: 25, val: "old", vts: 10},
	} {
		e := NewEngine(1)
		mustPut(t, e, "a", "old", 10, nil)
		mustPut(t, e, "a", "new", 20, &TxnMeta{ID: holder})
		opts := GetOptions{Records: c.recs}
		if c.limit != 0 {
			opts.UncertaintyLimit = ts(c.limit)
		}
		val, vts, err := e.Get(k("a"), ts(c.at), opts)
		rows, scanErr := e.Scan(k("a"), k("b"), ts(c.at), 0, opts)
		var wie *WriteIntentError
		var ue *UncertaintyError
		switch {
		case c.blocks:
			if !errors.As(err, &wie) || !errors.As(scanErr, &wie) {
				t.Errorf("%s: read %q@%v (%v), scan %v; want both blocked on the intent", c.name, val, vts, err, scanErr)
			}
		case c.uncertain != 0:
			if !errors.As(err, &ue) || ue.ValueTimestamp != ts(c.uncertain) || !errors.As(scanErr, &ue) {
				t.Errorf("%s: read %q@%v (%v), scan %v; want uncertain of a value at %d", c.name, val, vts, err, scanErr, c.uncertain)
			}
		default:
			if err != nil || string(val) != c.val || vts != ts(c.vts) {
				t.Errorf("%s: read %q@%v (%v), want %q@%d", c.name, val, vts, err, c.val, c.vts)
			}
			if scanErr != nil || len(rows) != 1 || string(rows[0].Value) != c.val || rows[0].Timestamp != ts(c.vts) {
				t.Errorf("%s: scan %v (%v), want %q@%d", c.name, rows, scanErr, c.val, c.vts)
			}
		}
	}
}

// TestRefreshAndNegotiationReadThrough: a refresh and the bounded-staleness
// negotiation, given the lookup, see a finished holder's intent as a read
// does: a committed one at its commit timestamp, an aborted one not at all.
// Without it (a follower) every intent counts at its own timestamp.
func TestRefreshAndNegotiationReadThrough(t *testing.T) {
	const holder = TxnID(7)
	for _, c := range []struct {
		name     string
		recs     Records
		newer    [][2]int64 // refresh windows (from, to] that see a newer write
		notNewer [][2]int64
		minTS    int64 // 0: no intent counts
	}{
		{"no lookup", nil, [][2]int64{{10, 20}}, [][2]int64{{20, 40}}, 20},
		{"pending", records{holder: {}}, [][2]int64{{10, 20}}, [][2]int64{{20, 40}}, 20},
		{"committed", records{holder: ts(30)}, [][2]int64{{20, 30}, {10, 40}}, [][2]int64{{10, 29}, {30, 40}}, 0},
		{"aborted", records{}, nil, [][2]int64{{10, 20}, {10, 40}}, 0},
	} {
		e := NewEngine(1)
		mustPut(t, e, "a", "old", 10, nil)
		mustPut(t, e, "a", "new", 20, &TxnMeta{ID: holder})
		for _, w := range c.newer {
			if !e.HasNewerVersion(k("a"), ts(w[0]), ts(w[1]), 0, c.recs) || !e.HasNewerVersionInSpan(k("a"), k("b"), ts(w[0]), ts(w[1]), 0, c.recs) {
				t.Errorf("%s: a refresh over (%d, %d] misses the intent", c.name, w[0], w[1])
			}
		}
		for _, w := range c.notNewer {
			if e.HasNewerVersion(k("a"), ts(w[0]), ts(w[1]), 0, c.recs) || e.HasNewerVersionInSpan(k("a"), k("b"), ts(w[0]), ts(w[1]), 0, c.recs) {
				t.Errorf("%s: a refresh over (%d, %d] finds a newer write", c.name, w[0], w[1])
			}
		}
		got, ok := e.MinIntentTS(k("a"), k("b"), c.recs)
		if want := c.minTS != 0; ok != want || want && got != ts(c.minTS) {
			t.Errorf("%s: negotiation finds an intent at %v (%v), want one: %v at %d", c.name, got, ok, want, c.minTS)
		}
	}
}
