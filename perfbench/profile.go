package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file turns a CPU profile, as runtime/pprof writes it, into host
// time per layer of the simulator. Only the standard library is
// available, so it decodes the few fields of the profile.proto message it
// needs: samples with their location IDs, CPU value and string labels,
// locations with their (inlined) function lines, functions, and the string
// table.

// sample is one profile sample: its stack, innermost frame first, how
// many profiling ticks and how much CPU time it stands for, and its pprof
// labels.
type sample struct {
	stack  []string
	ticks  int64
	cpuNs  int64
	labels map[string]string
}

// decodeProfile parses a gzip-compressed profile.proto message.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs      []string
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
	)
	err = eachField(raw, func(num, _ int, _ uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		s := sample{}
		// A CPU profile has two sample types, samples/count and
		// cpu/nanoseconds.
		if len(rs.values) == 2 {
			s.ticks, s.cpuNs = rs.values[0], rs.values[1]
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		if len(rs.labels) > 0 {
			s.labels = make(map[string]string, len(rs.labels))
			for _, kv := range rs.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, passing each field
// number and wire type with its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints calls fn for a repeated varint field in either encoding: one
// unpacked value, or a packed run of them.
func varints(wire int, v uint64, data []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
