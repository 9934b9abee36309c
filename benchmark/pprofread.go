package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for runtime/pprof CPU profiles (gzip-compressed
// profile.proto), standard library only. It decodes just what attribution
// needs: samples (location ids + values), locations (their lines'
// function ids), functions (name index) and the string table.

// hostLayers are the keys of the host_share.* metrics: the repo's packages
// under mrdb/internal, plus the Go runtime and the benchmark's own driver.
var hostLayers = []string{
	"sim", "simnet", "raft", "storage", "skl", "mvcc", "kv", "txn", "sql",
	"obs", "hlc", "zones", "core", "cluster", "runtime", "benchmark",
}

// protoReader walks one protobuf message.
type protoReader struct {
	b   []byte
	err error
}

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = fmt.Errorf("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, wire type, and either its varint
// value or its length-delimited bytes. ok is false at the end or on error.
func (r *protoReader) next() (field int, wire int, v uint64, data []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		r.skip(8)
	case 2:
		n := r.varint()
		if r.err == nil && uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
		}
		if r.err == nil {
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		r.skip(4)
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, v, data, r.err == nil
}

func (r *protoReader) skip(n int) {
	if len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// repeatedVarints decodes a repeated integer field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func repeatedVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := protoReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

type profSample struct {
	locs   []uint64
	values []uint64
}

// cpuProfile is the decoded subset of a profile.
type cpuProfile struct {
	samples []profSample
	// locFuncs maps a location id to its lines' function ids, innermost
	// (most inlined) first.
	locFuncs map[uint64][]uint64
	funcName map[uint64]uint64 // function id -> string table index
	strings  []string
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	r := protoReader{b: raw}
	for {
		field, wire, _, data, ok := r.next()
		if !ok {
			break
		}
		if wire != 2 {
			continue
		}
		switch field {
		case 2: // Sample
			var s profSample
			m := protoReader{b: data}
			for {
				f, w, v, d, ok := m.next()
				if !ok {
					break
				}
				var err error
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, d)
				case 2:
					s.values, err = repeatedVarints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := protoReader{b: data}
			for {
				f, w, v, d, ok := m.next()
				if !ok {
					break
				}
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2: // Line
					l := protoReader{b: d}
					for {
						lf, lw, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 && lw == 0 {
							funcs = append(funcs, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			m := protoReader{b: data}
			for {
				f, w, v, _, ok := m.next()
				if !ok {
					break
				}
				if w == 0 && f == 1 {
					id = v
				}
				if w == 0 && f == 2 {
					name = v
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	return p, r.err
}

// layerOfFunc maps a Go function name onto a host layer, or "" when the
// frame belongs to neither the repo nor the benchmark.
func layerOfFunc(name string) string {
	const internal = "mrdb/internal/"
	if i := strings.Index(name, internal); i >= 0 {
		pkg := name[i+len(internal):]
		if j := strings.IndexAny(pkg, "/."); j >= 0 {
			pkg = pkg[:j]
		}
		for _, l := range hostLayers {
			if l == pkg {
				return l
			}
		}
		// Harness packages (workload, bench, chaos) count as the driver.
		return "benchmark"
	}
	if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "mrdb/benchmark.") {
		return "benchmark"
	}
	return ""
}

// hostShares attributes every CPU sample to the innermost frame that
// belongs to a repo package (so allocation and map work count against the
// layer that asked for it), to the benchmark when the innermost such frame
// is the driver's, and to the Go runtime otherwise (GC workers, scheduler).
// Shares sum to 1.
func hostShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	weight := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				idx := p.funcName[fn]
				if idx >= uint64(len(p.strings)) {
					return nil, fmt.Errorf("function name index %d outside string table", idx)
				}
				if l := layerOfFunc(p.strings[idx]); l != "" {
					layer = l
					break frames
				}
			}
		}
		weight[layer] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		shares[l] = weight[l] / total
	}
	return shares, nil
}
