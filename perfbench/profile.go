package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run splits the time inside a simulation call — where the MPI
// runtime, the attached tools and the kernel run interleaved on the rank
// goroutines — with the Go CPU profiler: each sample is charged to the
// layer of the innermost repository frame on its stack, and samples with
// no repository frame (background GC, the scheduler) to the Go runtime.
// This file decodes the few fields of the pprof protobuf that needs.

// layerOf maps a function name to its layer ("" for a non-repository
// frame). The benchmark binary is package main, so its own frames (the
// load generator, the counting tool) read "main.".
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	const root = "repro/internal/"
	if !strings.HasPrefix(fn, root) {
		return ""
	}
	pkg := fn[len(root):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "mpi", "machine", "fault", "stats":
		return "mpi"
	case "prof", "trace", "export", "telemetry", "verify":
		return "tools"
	case "waitstate", "pop", "core":
		return "analysis"
	case "lulesh", "omp", "convolution", "img", "balance":
		return "kernels"
	case "sched":
		return "sched"
	case "serve":
		return "serve"
	default: // experiments, chart, diag: the sweeps and their renderers
		return "experiments"
	}
}

// layers is the reporting order of the self-time shares.
var layers = []string{"mpi", "tools", "analysis", "kernels", "experiments", "sched", "serve", "bench", "go"}

// cpuProfile collects a CPU profile of f and returns CPU seconds per layer.
func cpuProfile(f func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return layerSeconds(buf.Bytes())
}

// layerSeconds decodes a gzipped pprof profile and sums the cpu sample
// values (nanoseconds) per layer, in seconds.
func layerSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		values    [][]int64
		valueType []int64 // string index of each sample type's type
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, pb)
				case 2:
					for _, x := range appendVarints(nil, w, v, pb) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			samples, values = append(samples, locs), append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	cpu := -1
	for i, t := range valueType {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("decode profile: no cpu sample type")
	}
	out := map[string]float64{}
	for i, locs := range samples {
		if cpu >= len(values[i]) {
			continue
		}
		layer := "go"
	stack:
		for _, l := range locs {
			for _, fid := range locFuncs[l] {
				if si := funcName[fid]; si >= 0 && int(si) < len(strs) {
					if ly := layerOf(strs[si]); ly != "" {
						layer = ly
						break stack
					}
				}
			}
		}
		out[layer] += float64(values[i][cpu]) / 1e9
	}
	return out, nil
}

// fields walks the protobuf fields of b, handing varints as v and
// length-delimited payloads as p.
func fields(b []byte, fn func(num, wire int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var p []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, p); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (one
// varint) or packed (a length-delimited run of varints).
func appendVarints(dst []uint64, wire int, v uint64, p []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			break
		}
		dst, p = append(dst, x), p[n:]
	}
	return dst
}
