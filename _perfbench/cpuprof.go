package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the modules host CPU is attributed to: the program's
// packages by name, "runtime" for the Go runtime (GC, scheduler,
// allocator) and "other" for everything else, the standard library and
// the benchmark itself included.
var cpuModules = []string{
	"mpi", "mgcfd", "simpic", "pressure", "amg", "sparse", "spray", "coupler",
	"partition", "mesh", "perfmodel", "serve", "telemetry", "runtime", "other",
}

// moduleOf maps a fully qualified Go function name to its module.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "cpx/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuSelfByModule decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) and sums each sample's CPU time by the module of
// its leaf frame, in seconds.
func cpuSelfByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU profile's values are (samples, nanoseconds); take the
	// column whose type is "cpu".
	col := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t < int64(len(p.strings)) && p.strings[t] == "cpu" {
			col = i
		}
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || col < 0 || col >= len(s.values) {
			continue
		}
		mod := "other"
		if fns := p.locations[s.locs[0]]; len(fns) > 0 {
			if name := p.functions[fns[0]]; name < int64(len(p.strings)) {
				mod = moduleOf(p.strings[name])
			}
		}
		out[mod] += float64(s.values[col]) / 1e9
	}
	return out, nil
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []pSample
	locations   map[uint64][]uint64 // location ID -> function IDs, leaf (innermost inlined) first
	functions   map[uint64]int64    // function ID -> string-table index of its name
	strings     []string
}

type pSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(raw, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case fProfileSampleType:
			return eachField(msg, func(num, wire int, v uint64, _ []byte) error {
				if num == fValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s pSample
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocationID:
					return varints(wire, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(wire, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its scalar value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated integer field, packed or not.
func varints(wire int, v uint64, packed []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		packed = packed[n:]
	}
	return nil
}
