package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"mrdb/internal/hlc"
)

func TestRoundTrip(t *testing.T) {
	ts := hlc.Timestamp{WallTime: math.MinInt64, Logical: math.MaxInt32}
	b := AppendBytes(nil, nil)
	b = AppendBytes(b, []byte{})
	b = AppendBytes(b, []byte("key"))
	b = AppendTimestamp(b, ts)
	b = binary.AppendVarint(b, math.MaxInt64)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = append(b, 7)

	d := NewDecoder(b)
	if got := d.Bytes(); got != nil {
		t.Errorf("nil read back as %q", got)
	}
	if got := d.Bytes(); got == nil || len(got) != 0 {
		t.Errorf("empty read back as %v", got)
	}
	if got := d.Bytes(); string(got) != "key" {
		t.Errorf("bytes read back as %q", got)
	}
	if got := d.Timestamp(); got != ts {
		t.Errorf("timestamp read back as %v", got)
	}
	if got := d.Varint(); got != math.MaxInt64 {
		t.Errorf("varint read back as %d", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint read back as %d", got)
	}
	if d.Len() != 1 || !errors.Is(d.Finish(), ErrTrailing) {
		t.Errorf("one unread byte: Len %d, Finish %v", d.Len(), d.Finish())
	}
	if got := d.Byte(); got != 7 || d.Finish() != nil {
		t.Errorf("last byte %d, Finish %v", got, d.Finish())
	}
}

// TestFailureSticks: a read past the end fails, and so does every read after
// it, with zero values — a decoder never panics and never resumes mid-value.
func TestFailureSticks(t *testing.T) {
	for name, input := range map[string][]byte{
		"empty":             nil,
		"length past end":   {200, 1, 2},
		"unfinished varint": {0x80},
		"overlong varint":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		d := NewDecoder(input)
		if got := d.Bytes(); got != nil {
			t.Errorf("%s: Bytes returned %v", name, got)
		}
		if !errors.Is(d.Err(), ErrShort) {
			t.Errorf("%s: Err = %v", name, d.Err())
		}
		if d.Byte() != 0 || d.Uvarint() != 0 || d.Varint() != 0 || d.Timestamp() != (hlc.Timestamp{}) || d.Take(0) != nil {
			t.Errorf("%s: a read after the failure returned a value", name)
		}
		if !errors.Is(d.Finish(), ErrShort) {
			t.Errorf("%s: Finish = %v", name, d.Finish())
		}
	}
}
