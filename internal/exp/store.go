package exp

import (
	"encoding/json"
	"fmt"
	"os"

	"drt/internal/accel"
	"drt/internal/diskcache"
	"drt/internal/gen"
	"drt/internal/obs"
	"drt/internal/sim"
)

// The persistent trace store is the disk tier behind the in-memory trace
// cache: recorded schedules are serialized as content-addressed .drtt
// files (accel's binary trace codec) in a directory shared across
// processes, so a warm restart — or a sibling shard of the same sweep —
// replays every schedule some earlier process already recorded instead of
// re-running the engine. The in-memory tier stays in front: a process
// touches the disk at most once per (workload, tiling config), when the
// cell's Once materializes it.
//
// The store also changes the recording policy. Without it the cache only
// records on a configuration's second request, because a recorded trace
// stays live and a one-shot sweep cell would retain it for nothing (see
// cache.go). With a store attached, persistence itself is the proof
// of reuse — the next process replays what this one records — so every
// eligible cell records on first use and one-shot grids (Fig. 14's
// partition sweep, Fig. 17's micro-tile ablation) become replay-bound on
// warm restarts too.
//
// Next to the schedules the store keeps one summary record (.drtw, see
// accel.WorkloadSummary) per S² workload: its MACCs, input and output
// footprints and streamed-B bytes — everything a figure served from the
// store reads of the workload. A process that finds the record defers the
// workload (see Context.Square), so a warm rerun of a replayed figure
// builds no operands, grids or reference pass at all.

// traceStoreBudget bounds the store directory's bytes (older entries are
// LRU-evicted on store): 4 GiB holds tens of thousands of bench-scale
// schedules and a few hundred full-scale ones before eviction starts.
// Tests lower it to make stores evict.
var traceStoreBudget int64 = 4 << 30

// storeKeyVersion is the trace-store keying generation, folded into every
// disk key next to accel.TraceFormatVersion. Bump it when storeKey gains
// or reinterprets a field, so older entries are never looked up again.
// Version 2 added the workload's generator spec.
const storeKeyVersion = 2

// TraceStoreDir resolves a -trace-store flag value to a store root:
// "off" (also "none", "0", "") disables the store, "auto" defers to the
// DRT_TRACE_CACHE environment variable and falls back to the user cache
// directory's drt-traces subdir, and anything else is the directory
// itself.
func TraceStoreDir(flagValue string) string {
	switch flagValue {
	case "", "off", "none", "0":
		return ""
	case "auto":
		return diskcache.Dir("DRT_TRACE_CACHE", "drt-traces")
	default:
		return flagValue
	}
}

// storeKey is the canonical JSON form a disk key hashes: the trace-format
// and keying version salts, the Context-wide workload shaping knobs
// (Scale, MicroTile — wkey names a workload only within one Context), the
// generator spec the workload was built from (its seed, and its shape
// after any catalog edit), and every schedule-shaping field of the
// in-memory traceKey. Machine speed and pricing knobs are deliberately
// absent, exactly as they are absent from traceKey: one stored schedule
// serves every retime point.
type storeKey struct {
	Format    int // accel.TraceFormatVersion
	KeyVer    int // storeKeyVersion
	Scale     int
	MicroTile int
	Workload  string
	Spec      gen.Spec
	Variant   int
	Part      sim.Partition
	Strategy  int
	Init      [3]int
	Single    bool
	HasShape  bool
	Shape     [3]int
	GB, PB    int64
}

// diskKey content-addresses one recorded schedule for the store:
// the sha256 of the canonical storeKey JSON. A workload the context did
// not build (one a RunExtensor caller prepared itself) has no recorded
// spec and keys by name alone, so such callers must keep names unique
// across everyone sharing the store. Returns "" (never stored, never
// looked up) if marshaling fails, which it cannot for these field types.
func (c *Context) diskKey(k traceKey) string {
	c.mu.Lock()
	spec := c.specs[k.workload]
	c.mu.Unlock()
	blob, err := json.Marshal(storeKey{
		Format:    accel.TraceFormatVersion,
		KeyVer:    storeKeyVersion,
		Scale:     c.Opt.Scale,
		MicroTile: c.Opt.MicroTile,
		Workload:  k.workload,
		Spec:      spec,
		Variant:   int(k.variant),
		Part:      k.part,
		Strategy:  int(k.strategy),
		Init:      k.init,
		Single:    k.single,
		HasShape:  k.hasShape,
		Shape:     k.shape,
		GB:        k.gb,
		PB:        k.pb,
	})
	if err != nil {
		return ""
	}
	return diskcache.Key(blob)
}

// loadStored tries the disk tier for one schedule. A decodable entry is a
// hit (counted, mtime-touched for the store's LRU); a missing, truncated
// or corrupt .drtt file is a miss — corrupt entries are additionally
// removed so the re-recorded replacement gets a clean slot.
//
// Warm entries are served as zero-copy TraceViews (accel.OpenTrace): the
// returned trace's arrays alias the mmapped file image, so replay skips
// the decode-to-heap copy; only recording ever materializes a full heap
// Trace. Like the operand cache's mmap-backed tensors, the mapping is
// deliberately left open for the process lifetime — the memoized trace
// cell (and any in-flight retimer) keeps pricing it.
//
// Counters (flattened to drt_trace_store_* / drt_trace_view_* in the
// Prometheus export): trace_store.hits, trace_store.misses,
// trace_store.bytes (bytes served from disk by hits),
// trace_store.evictions (entries LRU-evicted by this process's stores),
// trace_view.opens / trace_view.bytes (hits served on the zero-copy mmap
// path).
func (c *Context) loadStored(key traceKey) (*accel.Trace, bool) {
	if !c.store.Enabled() {
		return nil, false
	}
	dk := c.diskKey(key)
	if dk == "" {
		return nil, false
	}
	rec := obs.OrNop(c.Opt.Rec)
	path := c.store.Path(dk)
	v, err := readStoredTrace(path)
	if err != nil {
		if !os.IsNotExist(err) {
			// The entry exists but does not decode: purge it so the
			// re-record below refills the slot cleanly.
			c.store.Remove(dk)
		}
		rec.Count("trace_store.misses", 1)
		return nil, false
	}
	rec.Count("trace_store.hits", 1)
	if n := c.store.Size(dk); n > 0 {
		rec.Count("trace_store.bytes", n)
	}
	if v.Mapped() {
		rec.Count("trace_view.opens", 1)
		rec.Count("trace_view.bytes", v.Bytes())
	}
	c.store.Touch(dk)
	return v.Trace(), true
}

// openTraceFile is the store's trace opener; tests swap it to inject
// decoder failures.
var openTraceFile = accel.OpenTrace

// readStoredTrace opens one store entry as a TraceView, converting any
// panic out of the codec into a plain error. The store's contract is that
// corrupt entries are misses, never failures; OpenTrace upholds that for
// every corruption it anticipates, and this guard extends it to decoder
// bugs it does not — a panicking entry is purged and re-recorded instead
// of crashing the sweep.
func readStoredTrace(path string) (v *accel.TraceView, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("exp: panic decoding stored trace %s: %v", path, r)
		}
	}()
	return openTraceFile(path)
}

// storeTrace writes one freshly recorded schedule to the disk tier,
// best-effort: a failed store is just a future miss, never a failed run.
func (c *Context) storeTrace(key traceKey, tr *accel.Trace) {
	if !c.store.Enabled() {
		return
	}
	dk := c.diskKey(key)
	if dk == "" {
		return
	}
	evicted, err := c.store.Put(dk, func(f *os.File) error { return tr.WriteBinary(f) })
	if err != nil {
		return
	}
	if evicted > 0 {
		obs.OrNop(c.Opt.Rec).Count("trace_store.evictions", int64(evicted))
	}
}

// summaryStoreKey is the canonical JSON form a summary record's disk key
// hashes: the record-format and keying version salts, the Context-wide
// workload shaping knobs, and the workload's name and generator spec —
// the trace keys' workload half.
type summaryStoreKey struct {
	Format    int // accel.SummaryFormatVersion
	KeyVer    int // storeKeyVersion
	Scale     int
	MicroTile int
	Workload  string
	Spec      gen.Spec
}

// summaryKey content-addresses the summary record of the workload named
// name built from spec. It returns "" (never stored, never looked up) with
// the store off, or if marshaling fails, which it cannot for these types.
func (c *Context) summaryKey(name string, spec gen.Spec) string {
	if !c.summaries.Enabled() {
		return ""
	}
	blob, err := json.Marshal(summaryStoreKey{
		Format:    accel.SummaryFormatVersion,
		KeyVer:    storeKeyVersion,
		Scale:     c.Opt.Scale,
		MicroTile: c.Opt.MicroTile,
		Workload:  name,
		Spec:      spec,
	})
	if err != nil {
		return ""
	}
	return diskcache.Key(blob)
}

// loadSummary reads one summary record. A decodable record is a hit
// (counted as summary_store.hits and mtime-touched for the LRU); a
// missing, truncated or corrupt one is a miss (summary_store.misses), and
// an undecodable file is purged so the rebuilt workload's record gets a
// clean slot.
func (c *Context) loadSummary(key string) (accel.WorkloadSummary, bool) {
	var s accel.WorkloadSummary
	if key == "" {
		return s, false
	}
	rec := obs.OrNop(c.Opt.Rec)
	b, err := os.ReadFile(c.summaries.Path(key))
	if err == nil {
		err = s.UnmarshalBinary(b)
		if err != nil {
			c.summaries.Remove(key)
		}
	}
	if err != nil {
		rec.Count("summary_store.misses", 1)
		return s, false
	}
	rec.Count("summary_store.hits", 1)
	c.summaries.Touch(key)
	return s, true
}

// storeSummary writes w's summary record, best-effort: a failed write is
// just a future miss.
func (c *Context) storeSummary(key string, w *accel.Workload) {
	if key == "" {
		return
	}
	blob, err := w.Summary().MarshalBinary()
	if err != nil {
		return
	}
	c.summaries.Put(key, func(f *os.File) error {
		_, err := f.Write(blob)
		return err
	})
}

// replaceSummary handles a record that disagrees with the workload a
// deferred Square later built: the record was a miss after all, so it is
// counted as one, purged, and rewritten from the build.
func (c *Context) replaceSummary(key string, w *accel.Workload) {
	obs.OrNop(c.Opt.Rec).Count("summary_store.misses", 1)
	c.summaries.Remove(key)
	c.storeSummary(key, w)
}
