package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"

	"mrdb/internal/mvcc"
	"mrdb/internal/raft"
	"mrdb/internal/simnet"
	"mrdb/internal/wire"
	"mrdb/internal/zones"
)

// This file is the codec of everything a node writes to its Disk; DESIGN §9
// lists each layout field by field. Integers are varints, byte strings keep
// nil apart from empty (wire.AppendBytes: a nil Value is a tombstone, a nil
// EndKey +inf), node lists read back nil when empty, and optional parts sit
// behind a flags byte. A WAL record is checksummed by the WAL's frame; a blob
// has no frame, so it ends in a CRC32 of its own. Encoding is a pure function
// of the value. Decoding never panics: short input, an unknown format byte, a
// checksum mismatch and trailing bytes are errors.

// formatV1 leads every record and blob: a reader that does not know the byte
// refuses the input instead of guessing at its layout.
const formatV1 = 1

const (
	entryHasCmd, entryHasConf              = 1, 2
	cmdHasTxn, cmdHasDesc, cmdHasSplitDesc = 1, 2, 4
	cmdHasKeys, cmdHasResolves             = 8, 16
)

var errChecksum = errors.New("kv: blob checksum mismatch")

func flagIf(set bool, flag byte) byte {
	if set {
		return flag
	}
	return 0
}

func checkFormat(d *wire.Decoder) error {
	if f := d.Byte(); d.Err() == nil && f != formatV1 {
		return fmt.Errorf("kv: unknown format byte %d", f)
	}
	return d.Err()
}

// appendWALRecord encodes one Raft persist batch. Entry payloads are nil
// (leader no-ops) or *Command, which it only reads: followers' logs share the
// leader's commands.
func appendWALRecord(dst []byte, hs raft.HardState, entries []raft.Entry) []byte {
	dst = binary.AppendUvarint(append(dst, formatV1), hs.Term)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(hs.Vote)), uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, e.Term), e.Index)
		dst = append(dst, flagIf(e.Data != nil, entryHasCmd)|flagIf(e.Conf != nil, entryHasConf))
		if e.Data != nil {
			dst = appendCommand(dst, entryCommand(*e))
		}
		if e.Conf != nil {
			dst = binary.AppendUvarint(append(dst, byte(e.Conf.Type)), uint64(e.Conf.Node))
		}
	}
	return dst
}

func decodeWALRecord(p []byte) (raft.HardState, []raft.Entry, error) {
	d := wire.NewDecoder(p)
	if err := checkFormat(d); err != nil {
		return raft.HardState{}, nil, err
	}
	hs := raft.HardState{Term: d.Uvarint(), Vote: simnet.NodeID(d.Uvarint())}
	var entries []raft.Entry
	// A count is only trusted as far as the input lasts: a corrupt one ends
	// the loop at the first short read.
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		e := raft.Entry{Term: d.Uvarint(), Index: d.Uvarint()}
		flags := d.Byte()
		if flags&entryHasCmd != 0 {
			e.Data = decodeCommand(d)
		}
		if flags&entryHasConf != 0 {
			e.Conf = &raft.ConfChange{Type: raft.ConfChangeType(d.Byte()), Node: simnet.NodeID(d.Uvarint())}
		}
		entries = append(entries, e)
	}
	return hs, entries, d.Finish()
}

func appendCommand(dst []byte, c *Command) []byte {
	dst = wire.AppendBytes(wire.AppendBytes(append(dst, byte(c.Kind)), c.Key), c.Value)
	dst = append(wire.AppendTimestamp(dst, c.Ts), byte(c.Status))
	dst = wire.AppendTimestamp(wire.AppendTimestamp(dst, c.CommitTS), c.ClosedTS)
	dst = wire.AppendTimestamp(binary.AppendVarint(dst, c.LeaseEpoch), c.SubsumeClosedTS)
	dst = append(dst, flagIf(c.Txn != nil, cmdHasTxn)|flagIf(c.Desc != nil, cmdHasDesc)|
		flagIf(c.SplitDesc != nil, cmdHasSplitDesc)|flagIf(len(c.Keys) > 0, cmdHasKeys)|
		flagIf(c.Resolves != 0, cmdHasResolves))
	if c.Txn != nil {
		dst = mvcc.AppendTxnMeta(dst, c.Txn)
	}
	if c.Resolves != 0 {
		dst = binary.AppendUvarint(dst, uint64(c.Resolves))
	}
	if len(c.Keys) > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(c.Keys)))
		for _, k := range c.Keys {
			dst = wire.AppendBytes(dst, k)
		}
	}
	if c.Desc != nil {
		dst = appendDesc(dst, c.Desc)
	}
	if c.SplitDesc != nil {
		dst = appendDesc(dst, c.SplitDesc)
	}
	return dst
}

func decodeCommand(d *wire.Decoder) *Command {
	c := &Command{
		Kind: CommandKind(d.Byte()), Key: bytes.Clone(d.Bytes()), Value: bytes.Clone(d.Bytes()),
		Ts: d.Timestamp(), Status: mvcc.TxnStatus(d.Byte()), CommitTS: d.Timestamp(), ClosedTS: d.Timestamp(),
		LeaseEpoch: d.Varint(), SubsumeClosedTS: d.Timestamp(),
	}
	flags := d.Byte()
	if flags&cmdHasTxn != 0 {
		txn := mvcc.DecodeTxnMeta(d)
		c.Txn = &txn
	}
	if flags&cmdHasResolves != 0 {
		c.Resolves = mvcc.TxnID(d.Uvarint())
	}
	if flags&cmdHasKeys != 0 {
		for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
			c.Keys = append(c.Keys, bytes.Clone(d.Bytes()))
		}
	}
	if flags&cmdHasDesc != 0 {
		c.Desc = decodeDesc(d)
	}
	if flags&cmdHasSplitDesc != 0 {
		c.SplitDesc = decodeDesc(d)
	}
	return c
}

func appendDesc(dst []byte, desc *RangeDescriptor) []byte {
	dst = binary.AppendUvarint(dst, uint64(desc.RangeID))
	dst = wire.AppendBytes(wire.AppendBytes(dst, desc.StartKey), desc.EndKey)
	dst = appendNodes(appendNodes(dst, desc.Voters), desc.NonVoters)
	dst = append(binary.AppendUvarint(dst, uint64(desc.Leaseholder)), byte(desc.Policy))
	dst = wire.AppendTimestamp(binary.AppendVarint(dst, desc.Generation), desc.LeaseStart)
	if desc.Config == nil {
		return append(dst, 0)
	}
	return appendConfig(append(dst, 1), desc.Config)
}

func decodeDesc(d *wire.Decoder) *RangeDescriptor {
	desc := &RangeDescriptor{
		RangeID: RangeID(d.Uvarint()), StartKey: bytes.Clone(d.Bytes()), EndKey: bytes.Clone(d.Bytes()),
		Voters: decodeNodes(d), NonVoters: decodeNodes(d),
		Leaseholder: simnet.NodeID(d.Uvarint()), Policy: ClosedTSPolicy(d.Byte()), Generation: d.Varint(),
		LeaseStart: d.Timestamp(),
	}
	if d.Byte() != 0 {
		desc.Config = decodeConfig(d)
	}
	return desc
}

// appendConfig encodes a zone config with each map's regions in ascending
// order, so the bytes are a function of the value.
func appendConfig(dst []byte, c *zones.Config) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(c.NumReplicas)), uint64(c.NumVoters))
	dst = appendRegionCounts(appendRegionCounts(dst, c.Constraints), c.VoterConstraints)
	dst = binary.AppendUvarint(dst, uint64(len(c.LeasePreferences)))
	for _, r := range c.LeasePreferences {
		dst = wire.AppendBytes(dst, []byte(r))
	}
	return dst
}

func decodeConfig(d *wire.Decoder) *zones.Config {
	c := &zones.Config{NumReplicas: int(d.Uvarint()), NumVoters: int(d.Uvarint())}
	c.Constraints, c.VoterConstraints = decodeRegionCounts(d), decodeRegionCounts(d)
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		c.LeasePreferences = append(c.LeasePreferences, simnet.Region(d.Bytes()))
	}
	return c
}

func appendRegionCounts(dst []byte, m map[simnet.Region]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, r := range slices.Sorted(maps.Keys(m)) {
		dst = binary.AppendUvarint(wire.AppendBytes(dst, []byte(r)), uint64(m[r]))
	}
	return dst
}

// decodeRegionCounts reads back nil for an empty map.
func decodeRegionCounts(d *wire.Decoder) map[simnet.Region]int {
	var m map[simnet.Region]int
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		if m == nil {
			m = map[simnet.Region]int{}
		}
		r := simnet.Region(d.Bytes())
		m[r] = int(d.Uvarint())
	}
	return m
}

func appendNodes(dst []byte, ids []simnet.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func decodeNodes(d *wire.Decoder) []simnet.NodeID {
	var ids []simnet.NodeID
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		ids = append(ids, simnet.NodeID(d.Uvarint()))
	}
	return ids
}

// sealBlob closes a blob that starts with its format byte by appending the
// checksum of everything before it.
func sealBlob(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// openBlob verifies a blob's checksum and format byte and returns a decoder
// over its body.
func openBlob(b []byte) (*wire.Decoder, error) {
	if len(b) < 4 {
		return nil, wire.ErrShort
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return nil, errChecksum
	}
	d := wire.NewDecoder(body)
	return d, checkFormat(d)
}

// appendCheckpointHeader starts a checkpoint blob; the engine stream and the
// seal follow. decodeCheckpoint leaves the stream, unparsed, in Engine.
func appendCheckpointHeader(dst []byte, c *checkpointRec) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(append(dst, formatV1), c.AppliedIndex), c.AppliedTerm)
	dst = wire.AppendTimestamp(wire.AppendTimestamp(appendDesc(dst, &c.Desc), c.Closed), c.Issued)
	return binary.AppendVarint(dst, c.LeaseEpoch)
}

func decodeCheckpoint(b []byte) (checkpointRec, error) {
	d, err := openBlob(b)
	if err != nil {
		return checkpointRec{}, err
	}
	c := checkpointRec{AppliedIndex: d.Uvarint(), AppliedTerm: d.Uvarint(), Desc: *decodeDesc(d),
		Closed: d.Timestamp(), Issued: d.Timestamp(), LeaseEpoch: d.Varint()}
	c.Engine = d.Take(uint64(d.Len()))
	return c, d.Err()
}

func encodeManifest(ids []RangeID) []byte {
	b := binary.AppendUvarint([]byte{formatV1}, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return sealBlob(b)
}

func decodeManifest(b []byte) ([]RangeID, error) {
	d, err := openBlob(b)
	if err != nil {
		return nil, err
	}
	var ids []RangeID
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		ids = append(ids, RangeID(d.Uvarint()))
	}
	return ids, d.Finish()
}

func encodeNodeMeta(epoch int64) []byte {
	return sealBlob(binary.AppendVarint([]byte{formatV1}, epoch))
}

func decodeNodeMeta(b []byte) (epoch int64, err error) {
	d, err := openBlob(b)
	if err != nil {
		return 0, err
	}
	return d.Varint(), d.Finish()
}
