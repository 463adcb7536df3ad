package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU-profile stack, innermost frame first, with its
// sample count and CPU nanoseconds.
type sample struct {
	stack []string
	count int64
	ns    int64
}

// parseProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into its samples, expanding inlined frames. Only the
// messages and fields attribution needs are read.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := pbFields(f.b, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(s.locs, g)
				case 2:
					s.vals, err = pbUints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, fmt.Errorf("profile: sample with %d values, want count and nanoseconds", len(s.vals))
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx := funcs[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				stack = append(stack, strs[idx])
			}
		}
		out = append(out, sample{stack: stack, count: int64(s.vals[0]), ns: int64(s.vals[1])})
	}
	return out, nil
}

// pbField is one protobuf field: a varint/fixed value in v, or the
// payload of a length-delimited field in b.
type pbField struct {
	num, wire int
	v         uint64
	b         []byte
}

// pbFields calls fn for each field of a protobuf message.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", f.num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", f.num)
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("profile: bad length in field %d", f.num)
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", f.num)
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", f.wire, f.num)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends the values of a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, fmt.Errorf("profile: bad packed varint in field %d", f.num)
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

const internalPrefix = "tmisa/internal/"

// layerOf returns the simulator layer a stack's time belongs to: the
// package of its innermost tmisa/internal frame ("cache" for
// tmisa/internal/cache.(*Level).lookup), or "" when no simulator frame
// is on the stack.
func layerOf(stack []string) string {
	if i := innermostInternal(stack); i >= 0 {
		return packageOf(stack[i])
	}
	return ""
}

func innermostInternal(stack []string) int {
	for i, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix) {
			return i
		}
	}
	return -1
}

func packageOf(fn string) string {
	rest := strings.TrimPrefix(fn, internalPrefix)
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// handoffFuncs are the runtime's channel, park and ready functions: what
// a simulated-CPU context switch costs the host.
var handoffFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.send": true,
	"runtime.recv": true, "runtime.sendDirect": true, "runtime.recvDirect": true,
	"runtime.selectgo": true, "runtime.gopark": true, "runtime.goparkunlock": true,
	"runtime.park_m": true, "runtime.mcall": true, "runtime.goready": true,
	"runtime.ready": true,
}

// isHandoff reports whether a sample is a simulated-CPU handoff: a
// runtime channel, park or ready frame whose innermost simulator frame
// is in sim, or the scheduler running after a park. The latter runs on
// the system stack, where the traceback ends at runtime.mcall and no sim
// frame is visible; in a traced pass nearly every parking goroutine is a
// simulated CPU handing off.
func isHandoff(stack []string) bool {
	if n := len(stack); n >= 2 && stack[n-1] == "runtime.mcall" && stack[n-2] == "runtime.park_m" {
		return true
	}
	i := innermostInternal(stack)
	if i < 0 || packageOf(stack[i]) != "sim" {
		return false
	}
	for _, fn := range stack[:i] {
		if handoffFuncs[fn] {
			return true
		}
	}
	return false
}

// isSpin reports whether a sample is inside the fallback-lock spin loop.
func isSpin(stack []string) bool {
	for _, fn := range stack {
		if strings.HasSuffix(fn, ".fbSpinWait") {
			return true
		}
	}
	return false
}

// isGC reports whether a sample is garbage-collector work: background
// marking and sweeping, or mark assists charged to allocating goroutines.
func isGC(stack []string) bool {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
			"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination":
			return true
		}
	}
	return false
}

// attribution is a CPU profile summed by layer and by the stack rules.
type attribution struct {
	samples               int64
	layerSamples, layerNS map[string]int64
	handoff, spin, gc     int64
}

func attribute(samples []sample) attribution {
	a := attribution{layerSamples: map[string]int64{}, layerNS: map[string]int64{}}
	for _, s := range samples {
		a.samples += s.count
		layer := layerOf(s.stack)
		a.layerSamples[layer] += s.count
		a.layerNS[layer] += s.ns
		if isHandoff(s.stack) {
			a.handoff += s.count
		}
		if isSpin(s.stack) {
			a.spin += s.count
		}
		if isGC(s.stack) {
			a.gc += s.count
		}
	}
	return a
}

// frac is n as a share of the profile's samples (0 for an empty profile).
func (a attribution) frac(n int64) float64 {
	if a.samples == 0 {
		return 0
	}
	return float64(n) / float64(a.samples)
}
