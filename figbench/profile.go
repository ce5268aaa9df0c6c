package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Layer attribution of CPU profiles. Each sample goes to the innermost
// layer entry point on its stack; a sample under the garbage collector
// goes to runtime.gc whatever called it, and a sample under no entry point
// goes to other. Extraction (core) and the per-task kernel split into
// their outer-level and PE-level shares by whether accel.runPELevel is an
// ancestor of the entry frame.

// Layer names, as the per-layer metrics spell them before ".busy_s".
const (
	layerGen        = "gen"
	layerGustavson  = "kernels.gustavson"
	layerTiling     = "tiling"
	layerCoreOuter  = "core.outer"
	layerCorePE     = "core.pe"
	layerRestricted = "kernels.restricted"
	layerEngine     = "accel.engine"
	layerTrace      = "accel.trace"
	layerCodec      = "accel.codec"
	layerGC         = "runtime.gc"
	layerOther      = "other"
)

// layerOrder lists every layer a sample can land in.
var layerOrder = []string{layerGen, layerGustavson, layerTiling, layerCoreOuter, layerCorePE,
	layerRestricted, layerEngine, layerTrace, layerCodec, layerGC, layerOther}

// peAncestor marks PE-level work.
const peAncestor = "drt/internal/accel.runPELevel"

// entryLayer maps each layer's entry points (function names as the
// profile spells them, generic type arguments stripped) to the layer.
// "core" resolves to core.outer or core.pe by peAncestor.
var entryLayer = map[string]string{
	"drt/internal/gen.Spec.Build":              layerGen,
	"drt/internal/kernels.Gustavson":           layerGustavson,
	"drt/internal/kernels.GustavsonParallel":   layerGustavson,
	"drt/internal/tiling.NewSummaryGrid":       layerTiling,
	"drt/internal/core.NewEnumerator":          "core",
	"drt/internal/core.(*Enumerator).Next":     "core",
	"drt/internal/core.(*Enumerator).Reset":    "core",
	"drt/internal/kernels.RestrictedGustavson": layerRestricted,
	"drt/internal/accel.runTasks":              layerEngine,
	"drt/internal/accel.runPELevel":            layerEngine,
	"drt/internal/accel.(*Trace).beginTask":    layerTrace,
	"drt/internal/accel.Retime":                layerTrace,
	"drt/internal/accel.(*Trace).RetimeBatch":  layerTrace,
	"drt/internal/accel.OpenTrace":             layerCodec,
	"drt/internal/accel.WriteTraceFile":        layerCodec,
	"drt/internal/exp.(*Context).loadStored":   layerCodec,
	"drt/internal/exp.(*Context).storeTrace":   layerCodec,
}

// gcFrame reports whether a frame belongs to the garbage collector.
func gcFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.gcDrain", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.gcBgMarkWorker",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone",
		"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim":
		return true
	}
	return false
}

// funcName strips generic type arguments: the profile spells
// kernels.RestrictedGustavson[go.shape.int32] for an instantiation.
func funcName(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		if j := strings.LastIndexByte(fn, ']'); j > i {
			return fn[:i] + fn[j+1:]
		}
	}
	return fn
}

// classify returns the layer of one sample's stack (frames[0] innermost)
// and whether its entry point runs under the PE level.
func classify(frames []string) (layer string, pe bool) {
	for _, f := range frames {
		if gcFrame(f) {
			return layerGC, false
		}
	}
	for i, f := range frames {
		l, ok := entryLayer[funcName(f)]
		if !ok {
			continue
		}
		for _, anc := range frames[i+1:] {
			if anc == peAncestor {
				pe = true
				break
			}
		}
		if l == "core" {
			l = layerCoreOuter
			if pe {
				l = layerCorePE
			}
		}
		return l, pe
	}
	return layerOther, false
}

// attribution is CPU time per layer, in seconds.
type attribution struct {
	busy map[string]float64
	// restrictedPE is the PE-level share of kernels.restricted.
	restrictedPE float64
	total        float64
}

func newAttribution() attribution {
	return attribution{busy: map[string]float64{}}
}

// add attributes one gzipped pprof CPU profile.
func (a *attribution) add(prof []byte) error {
	p, err := parseProfile(prof)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		sec := float64(s.nanos) / 1e9
		frames := p.frames(s.locs)
		l, pe := classify(frames)
		a.busy[l] += sec
		if l == layerRestricted && pe {
			a.restrictedPE += sec
		}
		a.total += sec
	}
	return nil
}

// addProfileMetrics reports per-layer busy seconds per pass (the profiled
// passes' sums divided by their count) and the named share of samples.
func addProfileMetrics(m map[string]metric, profiles []string) error {
	a := newAttribution()
	for _, path := range profiles {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := a.add(b); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	n := float64(max(len(profiles), 1))
	for _, l := range layerOrder {
		m[l+".busy_s"] = metric{a.busy[l] / n, "s"}
	}
	m["kernels.restricted.pe_busy_s"] = metric{a.restrictedPE / n, "s"}
	m["profile.busy_s"] = metric{a.total / n, "s"}
	named := 0.0
	if a.total > 0 {
		named = 1 - a.busy[layerOther]/a.total
	}
	m["profile.named_ratio"] = metric{named, "ratio"}
	return nil
}

// The decoder below reads the subset of profile.proto a Go CPU profile
// uses: samples (location ids, values), locations (lines), functions
// (name) and the string table.

type sample struct {
	locs  []uint64
	nanos int64
}

type profile struct {
	samples   []sample
	locLines  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string index
	strs      []string
}

// frames resolves a sample's location ids to function names, innermost
// first (inlined frames included).
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locLines[l] {
			if si := p.funcNames[fid]; si >= 0 && int(si) < len(p.strs) {
				out = append(out, p.strs[si])
			}
		}
	}
	return out
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = vals[len(vals)-1] // [samples, cpu nanoseconds]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fids
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
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
			p.funcNames[id] = name
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and its varint/fixed value or length-delimited bytes.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked feeds a repeated varint field that may arrive packed
// (wire type 2) or as single values (wire type 0).
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
