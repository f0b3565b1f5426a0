package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// The traced run attributes host CPU and heap allocation to modules
// from outside: a sampled CPU profile and the runtime's heap sample
// records, each sample charged by its stack (see attributeCPU).

// cpuProfile records a CPU profile while it is open.
type cpuProfile struct {
	buf bytes.Buffer
}

// startCPUProfile starts the traced phase's profilers: the CPU profile,
// and heap sampling fine enough that per-module allocation shares
// repeat (repetitions before it sample at the runtime default, so they
// weigh little in the shares).
func startCPUProfile() (*cpuProfile, error) {
	runtime.MemProfileRate = 16 << 10
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns sample counts per module bucket.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range stacks {
		if !profilerFrames(s.frames) {
			out[attributeCPU(s.frames)] += s.weight
		}
	}
	return out, nil
}

// heapShares returns heap bytes allocated per module bucket since the
// process started, from the runtime's sampled heap records.
func heapShares() map[string]float64 {
	runtime.GC() // publish the latest allocation samples
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]float64{}
	for _, r := range recs {
		var names []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			names = append(names, f.Function)
			if !more {
				break
			}
		}
		if !profilerFrames(names) {
			out[attributeAlloc(names)] += float64(r.AllocBytes)
		}
	}
	return out
}

// profilerFrames reports whether a sample is the profiler's own work
// (building the CPU profile), which is measurement overhead, not the
// workload's, and is left out of the shares.
func profilerFrames(frames []string) bool {
	return anyFrame(frames, func(f string) bool { return strings.HasPrefix(f, "runtime/pprof.") })
}

// shares normalises bucket weights to fractions of their total.
func shares(w map[string]float64) map[string]float64 {
	total := 0.0
	for _, v := range w {
		total += v
	}
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for k, v := range w {
		out[k] = v / total
	}
	return out
}

// moduleOf maps a symbol name to this repository's module, "bench" for
// the benchmark's own code, "unlisted" for a repository package that has
// no bucket of its own, or "" for anything else.
func moduleOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "main" || pkg == "polyraptor/e2ebench":
		return "bench" // the benchmark binary, or its test binary
	case pkg == "polyraptor":
		return "polyraptor" // the public facade over the codec and transport
	case strings.HasPrefix(pkg, "polyraptor/"):
		m := strings.TrimPrefix(pkg, "polyraptor/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		if slices.Contains(cpuModules, m) && slices.Contains(allocModules, m) {
			return m
		}
		return "unlisted"
	}
	return ""
}

// packageOf returns the import path part of a symbol name such as
// "polyraptor/internal/netsim.(*Port).onTxDone". Type arguments are
// cut off first: profiles name generic instantiations in full, as in
// "polyraptor/internal/metrics.sortedKeys[go.shape.struct { polyraptor/internal/metrics.x int }]",
// and the import paths inside the brackets are not the function's.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var gcFuncs = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanstack", "runtime.scanblock", "runtime.greyobject",
	"runtime.sweepone", "runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mheap).reclaim",
	"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.findObject",
}

func anyFrame(frames []string, match func(string) bool) bool {
	for _, f := range frames {
		if match(f) {
			return true
		}
	}
	return false
}

// attributeCPU charges one CPU sample, frames leaf first. A leaf in a
// repository module is that module's self time. Otherwise garbage
// collection, allocation and system calls get their own buckets; any
// other library or runtime helper (map access, copying, hashing) is
// charged to the nearest calling module; stacks made only of runtime
// frames (scheduling, idle, timers) are runtime_sched; the rest is
// other.
func attributeCPU(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if m := moduleOf(frames[0]); m != "" {
		return m
	}
	switch {
	case anyFrame(frames, func(f string) bool {
		for _, g := range gcFuncs {
			if strings.HasPrefix(f, g) {
				return true
			}
		}
		return false
	}):
		return "runtime_gc"
	case anyFrame(frames, func(f string) bool { return strings.HasPrefix(f, "runtime.mallocgc") }):
		return "runtime_malloc"
	case anyFrame(frames, func(f string) bool {
		p := packageOf(f)
		return p == "syscall" || p == "internal/runtime/syscall" || p == "internal/poll" ||
			strings.HasPrefix(f, "runtime.netpoll")
	}):
		return "syscall"
	}
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	if !anyFrame(frames, func(f string) bool {
		p := packageOf(f)
		return p != "runtime" && !strings.HasPrefix(p, "internal/") && !strings.HasPrefix(p, "runtime/")
	}) {
		return "runtime_sched"
	}
	return "other"
}

// attributeAlloc charges one heap sample, frames leaf first, to the
// nearest module that asked for the memory.
func attributeAlloc(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "other"
}

// profStack is one CPU sample: its weight and symbolised frames, leaf
// first with inlined calls expanded.
type profStack struct {
	weight float64
	frames []string
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's value and
// the function names along its stack.
func parseCPUProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, pbPacked(v, b)...)
				case 2:
					for _, x := range pbPacked(v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profStack{weight: float64(s.values[0])} // samples/count
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message. For varint fields
// fn gets the value; for length-delimited fields, the bytes (v = 0).
// Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbPacked returns a repeated varint field's values: one value when
// the field came unpacked (data nil), or every value in the packed
// bytes.
func pbPacked(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// pbVarint decodes one varint; n is 0 when b is truncated.
func pbVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
