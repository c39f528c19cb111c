package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuWeights decodes a gzipped runtime/pprof CPU profile and adds each
// bucket's sampled CPU nanoseconds to w. A sample is charged to:
//   - "runtime.gc" when any frame of its stack is garbage-collector work
//     (background marking, assists, sweeping, scavenging);
//   - otherwise the innermost frame under dragonfly/internal/<layer>, so
//     runtime and standard-library helpers (allocation, hashing, JSON) count
//     for the layer that called them — unless a frame of the benchmark's own
//     code (its observers, its loops) is innermore, which charges "bench";
//   - otherwise "other" (the scheduler, syscalls).
//
// Samples that are not collector work and have no core.Run frame are also
// added under outsideRun. Only the fields the attribution needs are decoded:
// samples, locations with their line records, functions, and the string
// table.
func cpuWeights(w map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		fnName  = map[uint64]int64{}    // function ID -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals := appendVarints(nil, v, b)
					if len(vals) > 0 {
						s.weight = int64(vals[len(vals)-1]) // cpu nanoseconds
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		var frames []string
		inRun := false
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
					inRun = inRun || strs[i] == "dragonfly/internal/core.Run"
				}
			}
		}
		layer := layerOf(frames)
		w[layer] += float64(s.weight)
		if layer != "runtime.gc" && !inRun {
			w[outsideRun] += float64(s.weight)
		}
	}
	return nil
}

// shares turns the weights cpuWeights collected into shares of the sampled
// CPU time; it is empty when nothing was sampled.
func shares(w map[string]float64) map[string]float64 {
	total := 0.0
	for k, v := range w {
		if k != outsideRun {
			total += v
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range w {
		out[k] = v / total
	}
	return out
}

// outsideRun keys the share of samples that are neither collector work nor
// under a core.Run frame; it overlaps the layer keys.
const outsideRun = "outside core.Run"

// gcFrames prefix the runtime functions that do garbage-collection work.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
}

// layerOf attributes one stack, innermost frame first (see cpuShares).
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFrames {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	const pkg = "dragonfly/internal/"
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(f, pkg); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// fields walks the protobuf fields of msg, handing each to fn with its
// number and either its varint value or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("dfperf: bad profile field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("dfperf: bad profile varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("dfperf: short profile field")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("dfperf: bad profile length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("dfperf: short profile field")
			}
			msg = msg[4:]
		default:
			return errors.New("dfperf: unknown profile wire type")
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked value v (b == nil), or a packed run in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
