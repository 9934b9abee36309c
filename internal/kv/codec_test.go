package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mrdb/internal/hlc"
	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/simnet"
)

// randBytes returns nil, empty or random bytes: the three a field that gives
// nil a meaning must keep apart.
func randBytes(rng *rand.Rand) []byte {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+rng.Intn(20))
	rng.Read(b)
	return b
}

func randTS(rng *rand.Rand) hlc.Timestamp {
	if rng.Intn(3) == 0 {
		return hlc.Timestamp{}
	}
	return hlc.Timestamp{WallTime: rng.Int63() - rng.Int63(), Logical: rng.Int31() - rng.Int31()}
}

func randNodes(rng *rand.Rand) []simnet.NodeID {
	var ids []simnet.NodeID // the codec reads an empty list back as nil
	for n := rng.Intn(6); n > 0; n-- {
		ids = append(ids, simnet.NodeID(rng.Intn(1000)))
	}
	return ids
}

// randDesc returns nil half the time.
func randDesc(rng *rand.Rand) *RangeDescriptor {
	if rng.Intn(2) == 0 {
		return nil
	}
	return someDesc(rng)
}

func someDesc(rng *rand.Rand) *RangeDescriptor {
	return &RangeDescriptor{
		RangeID: RangeID(rng.Uint64()), StartKey: randBytes(rng), EndKey: randBytes(rng),
		Voters: randNodes(rng), NonVoters: randNodes(rng), Leaseholder: simnet.NodeID(rng.Intn(1000)),
		Policy: ClosedTSPolicy(rng.Intn(2)), Generation: rng.Int63() - rng.Int63(),
	}
}

func randCommand(rng *rand.Rand, kind CommandKind) Command {
	c := Command{
		Kind: kind, Key: randBytes(rng), Value: randBytes(rng), Ts: randTS(rng),
		Status: mvcc.TxnStatus(rng.Intn(3)), CommitTS: randTS(rng), ClosedTS: randTS(rng),
		Desc: randDesc(rng), SplitDesc: randDesc(rng),
		LeaseEpoch: rng.Int63() - rng.Int63(), SubsumeClosedTS: randTS(rng),
	}
	if rng.Intn(2) == 0 {
		c.Txn = &mvcc.TxnMeta{ID: mvcc.TxnID(rng.Uint64()), Key: randBytes(rng), Epoch: rng.Int31(), WriteTimestamp: randTS(rng)}
	}
	if kind == CmdResolveIntent {
		// A resolution carries its range's keys of one transaction.
		for n := 2 + rng.Intn(3); n > 0; n-- {
			c.Keys = append(c.Keys, randBytes(rng))
		}
	}
	return c
}

// randBatch is a persist batch holding every command kind, no-ops and
// configuration changes.
func randBatch(rng *rand.Rand) (raft.HardState, []raft.Entry) {
	hs := raft.HardState{Term: rng.Uint64(), Vote: simnet.NodeID(rng.Intn(100))}
	var entries []raft.Entry
	for kind := CmdPut; kind <= CmdMerge; kind++ {
		entries = append(entries, raft.Entry{Term: rng.Uint64(), Index: rng.Uint64(), Data: randCommand(rng, kind)})
	}
	entries = append(entries,
		raft.Entry{Term: 3, Index: 9}, // leader no-op
		raft.Entry{Term: 3, Index: 10, Conf: &raft.ConfChange{Type: raft.ConfChangeType(rng.Intn(4)), Node: simnet.NodeID(rng.Intn(100))}},
		raft.Entry{Term: 3, Index: 11, Data: randCommand(rng, CmdDescUpdate), Conf: &raft.ConfChange{Type: raft.AddLearner, Node: 7}},
	)
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return hs, entries[:rng.Intn(len(entries)+1)]
}

// TestWALRecordRoundTrip: decode(encode(x)) == x for random batches — nil and
// empty byte strings distinct, nil and non-nil Txn/Desc/SplitDesc, a
// resolution's several keys in order — and the
// encoding of a value is a function of the value alone.
func TestWALRecordRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		hs, entries := randBatch(rand.New(rand.NewSource(seed)))
		rec := appendWALRecord(nil, hs, entries)
		if again := appendWALRecord([]byte("x"), hs, entries); !bytes.Equal(again[1:], rec) {
			t.Fatalf("seed %d: two encodings of one batch differ", seed)
		}
		gotHS, got, err := decodeWALRecord(rec)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if gotHS != hs {
			t.Fatalf("seed %d: hard state %+v, want %+v", seed, gotHS, hs)
		}
		if len(got) != len(entries) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(got), len(entries))
		}
		for i := range entries {
			if !reflect.DeepEqual(got[i], entries[i]) {
				t.Fatalf("seed %d entry %d:\n got %+v\nwant %+v", seed, i, got[i], entries[i])
			}
		}
	}
}

// TestBlobRoundTrips covers the three blob codecs.
func TestBlobRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		want := checkpointRec{
			AppliedIndex: rng.Uint64(), AppliedTerm: rng.Uint64(), Desc: *someDesc(rng),
			Closed: randTS(rng), Issued: randTS(rng), LeaseEpoch: rng.Int63(),
			Engine: append([]byte{}, randBytes(rng)...),
		}
		blob := sealBlob(append(appendCheckpointHeader(nil, &want), want.Engine...))
		got, err := decodeCheckpoint(blob)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("checkpoint %d: err %v\n got %+v\nwant %+v", i, err, got, want)
		}

		var ids []RangeID // like node lists, none reads back as nil
		for n := rng.Intn(5); n > 0; n-- {
			ids = append(ids, RangeID(rng.Uint64()))
		}
		if got, err := decodeManifest(encodeManifest(ids)); err != nil || !reflect.DeepEqual(got, ids) {
			t.Fatalf("manifest %v: got %v, err %v", ids, got, err)
		}
		epoch := rng.Int63() - rng.Int63()
		if got, err := decodeNodeMeta(encodeNodeMeta(epoch)); err != nil || got != epoch {
			t.Fatalf("nodemeta %d: got %d, err %v", epoch, got, err)
		}
	}
}

// TestDecodeRejectsDamagedInput: every strict prefix, a trailing byte and an
// unknown format byte are errors from each decoder — never a panic, never a
// value.
func TestDecodeRejectsDamagedInput(t *testing.T) {
	hs, entries := randBatch(rand.New(rand.NewSource(11)))
	for seed := int64(12); len(entries) < 4; seed++ {
		hs, entries = randBatch(rand.New(rand.NewSource(seed)))
	}
	// A multi-key resolution, whatever the batch drew.
	entries = append(entries, raft.Entry{Term: 4, Index: 12, Data: randCommand(rand.New(rand.NewSource(13)), CmdResolveIntent)})
	desc := RangeDescriptor{RangeID: 4, StartKey: mvcc.Key("a"), Voters: []simnet.NodeID{1, 2, 3}}
	engine := mvcc.NewEngine(1)
	for i := 0; i < 10; i++ {
		engine.Put(mvcc.Key(fmt.Sprintf("k%d", i)), mvcc.Value("v"), hlc.Timestamp{WallTime: int64(i + 1)}, nil)
	}
	decoders := map[string]struct {
		input  []byte
		decode func([]byte) error
	}{
		"wal record": {appendWALRecord(nil, hs, entries), func(b []byte) error { _, _, err := decodeWALRecord(b); return err }},
		"checkpoint": {
			sealBlob(engine.AppendSnapshot(appendCheckpointHeader(nil, &checkpointRec{AppliedIndex: 9, Desc: desc}))),
			func(b []byte) error {
				c, err := decodeCheckpoint(b)
				if err != nil {
					return err
				}
				return mvcc.NewEngine(1).LoadSnapshot(c.Engine)
			},
		},
		"manifest": {encodeManifest([]RangeID{1, 2, 300}), func(b []byte) error { _, err := decodeManifest(b); return err }},
		"nodemeta": {encodeNodeMeta(77), func(b []byte) error { _, err := decodeNodeMeta(b); return err }},
	}
	for name, d := range decoders {
		if err := d.decode(d.input); err != nil {
			t.Fatalf("%s: intact input: %v", name, err)
		}
		for n := 0; n < len(d.input); n++ {
			if d.decode(d.input[:n]) == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded", name, n, len(d.input))
			}
		}
		if d.decode(append(append([]byte{}, d.input...), 0)) == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
		future := append([]byte{}, d.input...)
		future[0] = formatV1 + 1
		if name != "wal record" {
			future = sealBlob(future[:len(future)-4]) // a well-formed blob of a format this build does not know
		}
		if d.decode(future) == nil {
			t.Errorf("%s: unknown format byte accepted", name)
		}
	}
	// A trailing byte inside the checksummed body, not just after the seal.
	meta := encodeNodeMeta(77)
	if _, err := decodeNodeMeta(sealBlob(append(meta[:len(meta)-4:len(meta)-4], 0))); err == nil {
		t.Error("nodemeta: trailing byte inside the sealed body accepted")
	}
}
