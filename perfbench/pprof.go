package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// This file groups profiles by module: the CPU profile runtime/pprof
// writes (decoded here from its gzipped protobuf, field numbers from
// profile.proto) and the heap profile runtime.MemProfile returns.

const repoPrefix = "github.com/faassched/faassched"

// modules are the layers CPU and allocations are attributed to, in
// report order. A sample whose leaf is in the Go runtime is "runtime";
// otherwise it belongs to the innermost repository frame on its stack
// (so sort.Slice inside metrics counts as metrics), and to "other" when
// no repository frame is on the stack.
var modules = []string{
	"trace", "workload", "cluster", "simkern", "queue", "ghost",
	"policy.cfs", "policy.fifo", "policy.core", "simrun", "metrics",
	"firecracker", "autoscale", "faults", "obs", "facade", "bench",
	"runtime", "other",
}

// internalModule maps internal/<pkg> to its module; packages not listed
// here (the unused policies, cliutil, ...) fall to "other".
var internalModule = map[string]string{
	"trace":       "trace",
	"workload":    "workload",
	"fib":         "workload",
	"cluster":     "cluster",
	"simkern":     "simkern",
	"queue":       "queue",
	"ghost":       "ghost",
	"policy/cfs":  "policy.cfs",
	"policy/fifo": "policy.fifo",
	"core":        "policy.core",
	"simrun":      "simrun",
	"metrics":     "metrics",
	"stats":       "metrics",
	"pricing":     "metrics",
	"firecracker": "firecracker",
	"autoscale":   "autoscale",
	"faults":      "faults",
	"obs":         "obs",
}

// funcPackage returns the import path of a symbolized Go function name,
// e.g. "github.com/x/y/internal/simkern" for
// "github.com/x/y/internal/simkern.(*Kernel).Run".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// repoModule returns the module of a repository package, or "" for
// packages outside the repository.
func repoModule(pkg string) string {
	switch {
	case pkg == repoPrefix:
		return "facade"
	case pkg == repoPrefix+"/perfbench":
		return "bench"
	case strings.HasPrefix(pkg, repoPrefix+"/internal/"):
		rest := strings.TrimPrefix(pkg, repoPrefix+"/internal/")
		if m, ok := internalModule[rest]; ok {
			return m
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 && rest[:i] != "policy" {
			if m, ok := internalModule[rest[:i]]; ok {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(pkg, repoPrefix+"/"):
		return "other"
	}
	return ""
}

// attribute assigns a stack (function names, leaf first) to a module.
// skipRuntime ignores runtime frames entirely, for allocation stacks
// whose leaves are always the allocator.
func attribute(stack []string, skipRuntime bool) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		if isRuntime(pkg) {
			if i == 0 && !skipRuntime {
				return "runtime"
			}
			continue
		}
		if m := repoModule(pkg); m != "" {
			return m
		}
	}
	if skipRuntime && len(stack) > 0 {
		return "runtime"
	}
	return "other"
}

// shares normalizes per-module weights to fractions that sum to 1 over
// modules (every key of w must be in modules).
func shares(w map[string]float64) map[string]float64 {
	total := 0.0
	for _, m := range modules {
		total += w[m]
	}
	out := make(map[string]float64, len(modules))
	for _, m := range modules {
		if total > 0 {
			out[m] = w[m] / total
		} else {
			out[m] = 0
		}
	}
	return out
}

// cpuByModule decodes a runtime/pprof CPU profile and returns sample
// counts per module plus the total sample count.
func cpuByModule(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	w := map[string]float64{}
	var total int64
	var stack []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		n := s.values[0] // the "samples/count" value
		w[attribute(stack, false)] += float64(n)
		total += n
	}
	return w, total, nil
}

// allocsByModule reads the heap profile's cumulative allocation records
// and returns estimated allocation counts per module (unsampled the way
// pprof does it) plus the number of profile records. The profile must
// have been flushed by a completed GC cycle.
func allocsByModule(rate int) (map[string]float64, int) {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	recs = recs[:n]
	w := map[string]float64{}
	var stack []string
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		// Scale the sampled counts: an allocation of average size s is
		// sampled with probability 1-exp(-s/rate).
		scale := 1.0
		if rate > 1 {
			avg := float64(r.AllocBytes) / float64(r.AllocObjects)
			scale = 1 / (1 - math.Exp(-avg/float64(rate)))
		}
		w[attribute(stack, true)] += float64(r.AllocObjects) * scale
	}
	return w, n
}

// profile is the subset of profile.proto the grouping needs.
type profile struct {
	samples  []pSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type pSample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// pbuf is a minimal protobuf wire-format reader.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads the next key and returns its number, wire type, and (for
// length-delimited fields) the payload; scalar values come back in val.
func (p *pbuf) field() (num int, wire int, val uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return num, wire, val, payload, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := pbuf{payload}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	var (
		strs      []string
		samples   []pSample
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncID = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, payload, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s pSample
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, w, v, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = uints(s.locs, w, v, pl); err != nil {
						return nil, err
					}
				case 2:
					var vals []uint64
					if vals, err = uints(nil, w, v, pl); err != nil {
						return nil, err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, _, v, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := pbuf{pl}
					for len(r.b) > 0 {
						ln, _, lv, _, err := r.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncID[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{payload}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locFuncID))}
	for id, fns := range locFuncID {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			si := funcName[f]
			if si >= uint64(len(strs)) {
				return nil, fmt.Errorf("function %d names string %d of %d", f, si, len(strs))
			}
			names = append(names, strs[si])
		}
		out.locFuncs[id] = names
	}
	return out, nil
}
