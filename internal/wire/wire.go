// Package wire holds the primitives of mrdb's durable byte formats (the WAL
// records and blobs of internal/kv, the engine stream of internal/mvcc):
// varints from encoding/binary, length-prefixed byte strings, and a Decoder
// whose every read is bounds-checked, so damaged input is an error and never
// a panic.
package wire

import (
	"encoding/binary"
	"errors"

	"mrdb/internal/hlc"
)

// Decoding errors.
var (
	ErrShort    = errors.New("wire: short or malformed input")
	ErrTrailing = errors.New("wire: trailing bytes")
)

// AppendBytes appends b behind its length plus one. Zero stands for nil, which
// callers give a meaning of its own (an mvcc tombstone, a range's +inf end
// key), so nil and empty both survive a round trip.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	return append(binary.AppendUvarint(dst, uint64(len(b))+1), b...)
}

// AppendTimestamp appends ts as two varints.
func AppendTimestamp(dst []byte, ts hlc.Timestamp) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, ts.WallTime), int64(ts.Logical))
}

// Decoder reads values off the front of a buffer. The first failure sticks:
// every later read returns a zero value, and Err and Finish report it.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first failure, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) }

// Finish returns the first failure, or ErrTrailing if input remains.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		return ErrTrailing
	}
	return d.err
}

// Take reads the next n bytes. The result aliases the decoder's input: clone
// it before the input is reused.
func (d *Decoder) Take(n uint64) []byte {
	if n > uint64(len(d.buf)) {
		d.buf, d.err = nil, ErrShort
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		n = len(d.buf) + 1 // fails
	}
	d.Take(uint64(n))
	return v
}

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads a byte string written by AppendBytes; like Take, it aliases.
func (d *Decoder) Bytes() []byte {
	if n := d.Uvarint(); n > 0 {
		return d.Take(n - 1)
	}
	return nil
}

// Timestamp reads a timestamp written by AppendTimestamp.
func (d *Decoder) Timestamp() hlc.Timestamp {
	return hlc.Timestamp{WallTime: d.Varint(), Logical: int32(d.Varint())}
}
