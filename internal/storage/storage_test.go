package storage

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"mrdb/internal/obs"
	"mrdb/internal/sim"
)

func newTestDisk(t *testing.T) (*sim.Simulation, *Disk) {
	t.Helper()
	s := sim.New(1)
	return s, NewDisk(s, 42, nil)
}

func TestEmptyWALRecovers(t *testing.T) {
	_, d := newTestDisk(t)
	w := d.WAL("r1/raft")
	recs, err := w.Records()
	if err != nil {
		t.Fatalf("empty WAL: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty WAL returned %d records", len(recs))
	}
	d.Crash()
	if recs, err = w.Records(); err != nil || len(recs) != 0 {
		t.Fatalf("empty WAL after crash: recs=%d err=%v", len(recs), err)
	}
}

func TestSyncMakesRecordsDurable(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("r1/raft")
	w.Append([]byte("alpha"))
	w.Append([]byte("beta"))
	synced := false
	w.Sync(func() { synced = true })
	if synced {
		t.Fatal("fsync completed with no time passing")
	}
	s.RunFor(sim.Millisecond)
	if !synced {
		t.Fatal("fsync callback never fired")
	}
	d.Crash()
	recs, err := w.Records()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if len(recs) != 2 || string(recs[0]) != "alpha" || string(recs[1]) != "beta" {
		t.Fatalf("recovered %q, want [alpha beta]", recs)
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("r1/raft")
	w.Append([]byte("durable"))
	w.Sync(nil)
	s.RunFor(sim.Millisecond)
	w.Append([]byte("volatile-1"))
	w.Append([]byte("volatile-2"))
	d.Crash()
	// At most a torn fragment of volatile-1's frame may survive; Records
	// must truncate it and return only the durable record.
	recs, err := w.Records()
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	if len(recs) != 1 || string(recs[0]) != "durable" {
		t.Fatalf("recovered %q, want [durable]", recs)
	}
	// The log must be clean after truncation: new appends recover fine.
	w.Append([]byte("post-crash"))
	w.Sync(nil)
	s.RunFor(sim.Millisecond)
	recs, err = w.Records()
	if err != nil || len(recs) != 2 || string(recs[1]) != "post-crash" {
		t.Fatalf("append after truncation: recs=%q err=%v", recs, err)
	}
}

func TestTornFragmentIsAlwaysIncomplete(t *testing.T) {
	// Across many crashes the torn fragment must never parse as a complete
	// record (the model persists at most a prefix of one in-flight frame).
	s := sim.New(7)
	for seed := int64(0); seed < 50; seed++ {
		d := NewDisk(s, seed, nil)
		w := d.WAL("w")
		w.Append(bytes.Repeat([]byte("x"), 100))
		d.Crash()
		recs, err := w.Records()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(recs) != 0 {
			t.Fatalf("seed %d: torn fragment parsed as a full record", seed)
		}
	}
}

func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("r1/raft")
	w.Append([]byte("first-record"))
	w.Append([]byte("second-record"))
	w.Sync(nil)
	s.RunFor(sim.Millisecond)
	// Flip a payload bit inside the first (mid-log, durable) record.
	w.FlipBit(frameHeader+2, 3)
	_, err := w.Records()
	var ce *ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("corruption not detected: err=%v", err)
	}
	if ce.WAL != "r1/raft" || ce.Offset != 0 {
		t.Fatalf("wrong corruption site: %+v", ce)
	}
}

func TestLastDurableRecordCorruptionFailsLoudly(t *testing.T) {
	// Corruption below the durable prefix is never a torn tail, even on the
	// final record: the bytes were fsynced, so a bad CRC there is bit rot.
	s, d := newTestDisk(t)
	w := d.WAL("w")
	w.Append([]byte("only"))
	w.Sync(nil)
	s.RunFor(sim.Millisecond)
	w.FlipBit(w.DurableSize()-1, 0)
	if _, err := w.Records(); err == nil {
		t.Fatal("durable-record corruption went undetected")
	}
}

func TestCrashCancelsInflightFsync(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("w")
	w.Append([]byte("doomed"))
	fired := false
	w.Sync(func() { fired = true })
	d.Crash() // before the fsync delay elapses
	s.RunFor(sim.Second)
	if fired {
		t.Fatal("fsync callback fired after crash")
	}
	if w.DurableSize() != 0 {
		t.Fatalf("durable size %d after crashed fsync", w.DurableSize())
	}
}

func TestResetDurableReplacesLog(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("w")
	w.Append([]byte("old-1"))
	w.Append([]byte("old-2"))
	w.Sync(nil)
	s.RunFor(sim.Millisecond)
	w.ResetDurable([][]byte{[]byte("new-1")})
	d.Crash()
	recs, err := w.Records()
	if err != nil || len(recs) != 1 || string(recs[0]) != "new-1" {
		t.Fatalf("after reset+crash: recs=%q err=%v", recs, err)
	}
}

func TestResetInvalidatesInflightSync(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("w")
	w.Append([]byte("pre-reset"))
	fired := false
	w.Sync(func() { fired = true })
	w.ResetDurable(nil)
	s.RunFor(sim.Second)
	if fired {
		t.Fatal("stale fsync completed against rewritten log")
	}
	if w.Size() != 0 {
		t.Fatalf("log not empty after reset: %d bytes", w.Size())
	}
}

func TestWALMetrics(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	d := NewDisk(s, 1, reg)
	w := d.WAL("w")
	w.Append([]byte("aaaa"))
	w.Append([]byte("bb"))
	w.Sync(nil)
	s.RunFor(sim.Millisecond)
	if got := reg.Counter("storage.wal.appends").Value(); got != 2 {
		t.Fatalf("appends=%d, want 2", got)
	}
	if got := reg.Counter("storage.wal.fsyncs").Value(); got != 1 {
		t.Fatalf("fsyncs=%d, want 1", got)
	}
	wantBytes := int64(2*frameHeader + 4 + 2)
	if got := reg.Counter("storage.wal.bytes").Value(); got != wantBytes {
		t.Fatalf("bytes=%d, want %d", got, wantBytes)
	}
}

func TestBlobsSurviveCrash(t *testing.T) {
	_, d := newTestDisk(t)
	d.PutBlob("r1/ckpt", []byte("checkpoint-v1"))
	d.PutBlob("nodemeta", []byte("epoch"))
	d.Crash()
	b, ok := d.GetBlob("r1/ckpt")
	if !ok || string(b) != "checkpoint-v1" {
		t.Fatalf("blob lost in crash: %q ok=%v", b, ok)
	}
	if len(d.blobs) != 2 {
		t.Fatalf("%d blobs after the crash, want 2", len(d.blobs))
	}
	d.DeleteBlob("nodemeta")
	if _, ok := d.GetBlob("nodemeta"); ok {
		t.Fatal("deleted blob still present")
	}
}

func TestFIFOSyncOrdering(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("w")
	var order []int
	w.Append([]byte("one"))
	w.Sync(func() { order = append(order, 1) })
	w.Append([]byte("two"))
	w.Sync(func() { order = append(order, 2) })
	s.RunFor(sim.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("sync completion order %v, want [1 2]", order)
	}
	// When callback 2 fired, both records were durable (FIFO guarantee).
	if w.DurableSize() != w.Size() {
		t.Fatalf("durable %d != size %d after both syncs", w.DurableSize(), w.Size())
	}
}

// TestSyncsCompleteWhenDue: when the disk gets faster between two syncs, the
// later one completes first, at its own due time, and each callback gets its
// own argument; the earlier one still completes, at its due time, and makes
// durable no less than the later one did.
func TestSyncsCompleteWhenDue(t *testing.T) {
	s, d := newTestDisk(t)
	w := d.WAL("w")
	type done struct {
		arg     string
		at      sim.Time
		durable int
	}
	var got []done
	record := func(arg string) { got = append(got, done{arg, s.Now(), w.DurableSize()}) }
	d.FsyncDelay = 10 * sim.Millisecond
	w.Append([]byte("slow"))
	SyncWith(w, record, "slow")
	d.FsyncDelay = sim.Millisecond
	w.Append([]byte("fast"))
	SyncWith(w, record, "fast")
	fast := w.Size()
	w.Append([]byte("also fast"))
	SyncWith(w, record, "also fast")
	s.Run()
	want := []done{
		{"fast", sim.Time(sim.Millisecond), fast},
		{"also fast", sim.Time(sim.Millisecond), w.Size()},
		{"slow", sim.Time(10 * sim.Millisecond), w.Size()},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("syncs completed as %+v, want %+v", got, want)
	}
}

// TestInvalidatedSyncsStayDropped: syncs that a crash, or a rewrite of the
// log, invalidates never complete, while a sync started after it, queued
// behind them, completes when it is due.
func TestInvalidatedSyncsStayDropped(t *testing.T) {
	for _, c := range []struct {
		name       string
		invalidate func(d *Disk, w *WAL)
	}{
		{"crash", func(d *Disk, w *WAL) { d.Crash() }},
		{"reset", func(d *Disk, w *WAL) { w.ResetDurable(nil) }},
	} {
		s, d := newTestDisk(t)
		w := d.WAL("w")
		var fired []string
		record := func(arg string) { fired = append(fired, arg) }
		w.Append([]byte("lost-1"))
		SyncWith(w, record, "lost-1")
		w.Append([]byte("lost-2"))
		SyncWith(w, record, "lost-2")
		c.invalidate(d, w)
		w.Append([]byte("kept"))
		SyncWith(w, record, "kept")
		s.Run()
		if !slices.Equal(fired, []string{"kept"}) || w.DurableSize() != w.Size() {
			t.Errorf("%s: syncs completed %v with %d of %d bytes durable, want [kept] and all of them", c.name, fired, w.DurableSize(), w.Size())
		}
	}
}
