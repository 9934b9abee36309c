package sql

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"mrdb/internal/mvcc"
	"mrdb/internal/slab"
)

// Key/value encoding. Keys use an order-preserving tuple encoding (the same
// idea as CockroachDB's key encoding): the byte comparison of two encoded
// keys matches the tuple comparison of their values. Row values use a
// compact self-describing column encoding.

// Datum is a SQL value: nil, string, int64, float64 or bool. Regions,
// UUIDs and timestamps are represented as strings / int64s at this layer;
// column types (see catalog.go) give them SQL-level meaning.
type Datum interface{}

// DatumCarve boxes the Datums a decode or an evaluation makes into chunks
// of its own, each value written once (slab.Box): a string's bytes and its
// header, an int64, a float64. A value costs no heap object of its own; a
// chunk lives while any value boxed in it does. A string's header points
// into a chunk of bytes, so the headers come from short chunks
// (slab.Short): a full-sized chunk of them would keep every byte chunk its
// dead strings point into alive for one survivor. A Session owns one
// (Session.datums); a caller without a session passes a zero DatumCarve of
// its own.
type DatumCarve struct {
	bytes  slab.Of[byte]
	strs   slab.Short[string]
	ints   slab.Of[int64]
	floats slab.Of[float64]
}

// str boxes a string of b's bytes.
func (c *DatumCarve) str(b []byte) Datum { return slab.Box(&c.strs, slab.String(&c.bytes, b)) }

// i64 boxes v.
func (c *DatumCarve) i64(v int64) Datum { return slab.Box(&c.ints, v) }

// f64 boxes v.
func (c *DatumCarve) f64(v float64) Datum { return slab.Box(&c.floats, v) }

// Type tags for value encoding.
const (
	tagNull byte = iota
	tagString
	tagInt
	tagFloat
	tagBool
)

// Key-encoding markers. Each encoded datum starts with a marker so that
// different types order deterministically (null first, then bools, ints,
// floats, strings).
const (
	kmNull   byte = 0x01
	kmFalse  byte = 0x02
	kmTrue   byte = 0x03
	kmInt    byte = 0x04
	kmFloat  byte = 0x05
	kmString byte = 0x06
)

// EncodeKeyDatum appends the order-preserving encoding of d to buf.
func EncodeKeyDatum(buf []byte, d Datum) []byte {
	switch v := d.(type) {
	case nil:
		return append(buf, kmNull)
	case bool:
		if v {
			return append(buf, kmTrue)
		}
		return append(buf, kmFalse)
	case int64:
		buf = append(buf, kmInt)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
		return append(buf, b[:]...)
	case int:
		return EncodeKeyDatum(buf, int64(v))
	case float64:
		buf = append(buf, kmFloat)
		bits := math.Float64bits(v)
		if math.Signbit(v) {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(buf, b[:]...)
	case string:
		buf = append(buf, kmString)
		// Escape 0x00 as 0x00 0xFF; terminate with 0x00 0x01 so that
		// prefixes order before extensions.
		for i := 0; i < len(v); i++ {
			if v[i] == 0x00 {
				buf = append(buf, 0x00, 0xFF)
			} else {
				buf = append(buf, v[i])
			}
		}
		return append(buf, 0x00, 0x01)
	default:
		panic(fmt.Sprintf("sql: cannot key-encode %T", d))
	}
}

// KeyTupleSize returns the exact encoded size of a datum tuple, so callers
// can allocate key buffers once at full capacity.
func KeyTupleSize(vals []Datum) int {
	n := 0
	for _, d := range vals {
		switch v := d.(type) {
		case nil, bool:
			n++
		case int64, int:
			n += 9
		case float64:
			n += 9
		case string:
			n += 3 + len(v) // marker + bytes + terminator; 0x00 escapes add more
			for i := 0; i < len(v); i++ {
				if v[i] == 0x00 {
					n++
				}
			}
		default:
			panic(fmt.Sprintf("sql: cannot key-encode %T", d))
		}
	}
	return n
}

// AppendKeyTuple appends the order-preserving encoding of each datum to
// buf; identical bytes to calling EncodeKeyDatum in a loop.
func AppendKeyTuple(buf mvcc.Key, vals []Datum) mvcc.Key {
	for _, v := range vals {
		buf = EncodeKeyDatum(buf, v)
	}
	return buf
}

// encodeRow encodes the columns ids of vals as a row value, in ascending ID
// order (ids is sorted in place); nil ids encodes every column of vals. The
// value is carved from values at its exact size, so the bytes every
// replica's engine and the Raft log keep are the row's alone, and appending
// to it cannot reach another value.
func encodeRow(values *slab.Of[byte], vals map[ColumnID]Datum, ids []ColumnID) mvcc.Value {
	if ids == nil {
		var buf [16]ColumnID
		ids = buf[:0]
		for id := range vals {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	size := uvarintLen(uint64(len(ids)))
	for _, id := range ids {
		size += uvarintLen(uint64(id)) + 1
		switch v := vals[id].(type) {
		case nil:
		case string:
			size += uvarintLen(uint64(len(v))) + len(v)
		case int64:
			size += varintLen(v)
		case int:
			size += varintLen(int64(v))
		case float64:
			size += 8
		case bool:
			size++
		default:
			panic(fmt.Sprintf("sql: cannot encode %T", vals[id]))
		}
	}
	buf := binary.AppendUvarint(values.Take(size)[:0], uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		switch v := vals[id].(type) {
		case nil:
			buf = append(buf, tagNull)
		case string:
			buf = append(buf, tagString)
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		case int64:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, v)
		case int:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, int64(v))
		case float64:
			buf = append(buf, tagFloat)
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		case bool:
			if v {
				buf = append(buf, tagBool, 1)
			} else {
				buf = append(buf, tagBool, 0)
			}
		}
	}
	return mvcc.Value(buf)
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintLen is the length of binary.AppendVarint's encoding of x.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// DecodeRow decodes a row value back into column values boxed by c.
func DecodeRow(val mvcc.Value, c *DatumCarve) (map[ColumnID]Datum, error) {
	out := map[ColumnID]Datum{}
	if err := DecodeRowInto(out, val, nil, nil, nil, c); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeRowInto decodes the columns cols of a row value of table t into out,
// which must be empty; nil cols decodes every column. Other columns are
// skipped in place, so a string column nobody reads costs neither a string
// nor its interface box, and neither does one it keeps: a string, an int
// or a float is boxed by c, whose chunks hold its bytes and its box, and a
// bool or NULL needs no box. A region name in t's region column decodes to
// the Datum of regions that holds it (the session's boxed names, see
// Session.regionNames); a name regions lacks, or any column of a nil t, is
// boxed by c like any string. The read path feeds it pooled maps to avoid
// per-row map churn.
func DecodeRowInto(out map[ColumnID]Datum, val mvcc.Value, cols []ColumnID, t *Table, regions []Datum, c *DatumCarve) error {
	buf := []byte(val)
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return fmt.Errorf("sql: bad row header")
	}
	buf = buf[sz:]
	for i := uint64(0); i < n; i++ {
		id, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return fmt.Errorf("sql: bad column id")
		}
		buf = buf[sz:]
		if len(buf) == 0 {
			return fmt.Errorf("sql: truncated column")
		}
		tag := buf[0]
		buf = buf[1:]
		keep := cols == nil || slices.Contains(cols, ColumnID(id))
		switch tag {
		case tagNull:
			if keep {
				out[ColumnID(id)] = nil
			}
		case tagString:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf)-sz) < l {
				return fmt.Errorf("sql: truncated string")
			}
			if keep {
				if name := buf[sz : sz+int(l)]; t != nil && ColumnID(id) == t.RegionColumn {
					out[ColumnID(id)] = boxedName(regions, name, c)
				} else {
					out[ColumnID(id)] = c.str(name)
				}
			}
			buf = buf[sz+int(l):]
		case tagInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return fmt.Errorf("sql: bad int")
			}
			if keep {
				out[ColumnID(id)] = c.i64(v)
			}
			buf = buf[sz:]
		case tagFloat:
			if len(buf) < 8 {
				return fmt.Errorf("sql: truncated float")
			}
			if keep {
				out[ColumnID(id)] = c.f64(math.Float64frombits(binary.BigEndian.Uint64(buf[:8])))
			}
			buf = buf[8:]
		case tagBool:
			if len(buf) < 1 {
				return fmt.Errorf("sql: truncated bool")
			}
			if keep {
				out[ColumnID(id)] = buf[0] == 1
			}
			buf = buf[1:]
		default:
			return fmt.Errorf("sql: unknown tag %d", tag)
		}
	}
	return nil
}

// boxedName returns the Datum of names that holds name, or name boxed by c
// when none does. The comparison converts nothing.
func boxedName(names []Datum, name []byte, c *DatumCarve) Datum {
	for _, d := range names {
		if d.(string) == string(name) {
			return d
		}
	}
	return c.str(name)
}

// DatumsEqual compares two datums for SQL equality (ints and floats
// compare numerically).
func DatumsEqual(a, b Datum) bool {
	if ai, ok := a.(int); ok {
		a = int64(ai)
	}
	if bi, ok := b.(int); ok {
		b = int64(bi)
	}
	if af, ok := a.(int64); ok {
		if bf, ok := b.(float64); ok {
			return float64(af) == bf
		}
	}
	if af, ok := a.(float64); ok {
		if bi, ok := b.(int64); ok {
			return af == float64(bi)
		}
	}
	return a == b
}

// FormatDatum renders a datum for result output.
func FormatDatum(d Datum) string {
	switch v := d.(type) {
	case nil:
		return "NULL"
	case string:
		return v
	default:
		return fmt.Sprintf("%v", v)
	}
}
