package gen

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"drt/internal/diskcache"
	"drt/internal/obs"
	"drt/internal/tensor"
)

// cacheFormatVersion is folded into every cache key; bump it whenever a
// generator's output changes, or the .drtb layout changes in a way the
// decoder still accepts, so stale entries are simply never looked up
// again. A layout the decoder rejects needs no bump: its entries are
// misses that the fresh build overwrites.
const cacheFormatVersion = 1

// CacheMinNNZ gates the operand cache by target occupancy: matrices below
// it regenerate faster than they deserialize, so only full-scale operands
// (the -scale 1 SuiteSparse/SNAP stand-ins) hit the disk at all.
const CacheMinNNZ = 1 << 18

// CacheDir resolves the operand cache directory. DRT_OPERAND_CACHE
// overrides it; the values "off", "none" and "0" (or an unresolvable user
// cache dir) disable caching, reported as the empty string.
func CacheDir() string {
	return diskcache.Dir("DRT_OPERAND_CACHE", "drt-operands")
}

// cacheKey content-addresses a spec: the sha256 of its canonical JSON form
// plus the format version. Two specs that build the same matrix map to the
// same file, whatever produced them.
func cacheKey(spec Spec) string {
	blob, err := json.Marshal(spec)
	if err != nil {
		return "" // cannot happen for Spec; treated as uncacheable
	}
	return diskcache.Key(append(blob, []byte(fmt.Sprintf("|v%d", cacheFormatVersion))...))
}

// opCaches memoizes one Cache handle per root so the per-key singleflight
// state is process-wide: concurrent workloads sharing an operand generate
// it once, however many CachedBuild calls race.
var opCaches sync.Map // root string → *diskcache.Cache

// operandCache is the process-wide handle for the current cache dir: the
// operand cache has no byte budget (full-scale operands are the point of
// it), so entries persist until the user clears the directory.
func operandCache() *diskcache.Cache {
	root := CacheDir()
	if root == "" {
		return nil // nil *Cache is a valid, disabled cache
	}
	c, _ := opCaches.LoadOrStore(root, diskcache.New(root, ".drtb", 0))
	return c.(*diskcache.Cache)
}

// CachedBuild materializes the spec through the operand cache: a hit
// memory-maps (or, failing that, reads) the stored .drtb file; a miss
// builds the matrix, stores it, and returns the in-memory build. An entry
// that does not decode (damaged, or written in the retired 32-bit layout)
// is a miss, and the store replaces it. Small
// specs (below CacheMinNNZ) and a disabled cache build directly. Cache I/O
// failures degrade to a fresh build — the cache can never fail a run that
// generation alone would complete.
//
// Counters (flattened to drt_operand_cache_* in the Prometheus export):
// operand_cache.hits, operand_cache.misses, operand_cache.bytes (bytes
// served from disk by hits).
//
// A hit may be mmap-backed: the returned operand's arrays alias the
// mapping and stay valid until Close. Callers that thread slices into
// long-lived structures (exp does) should keep the operand open for the
// process lifetime rather than Close it.
func CachedBuild(spec Spec, rec obs.Recorder) (*tensor.Operand, error) {
	if rec == nil {
		rec = obs.Nop{}
	}
	cache := operandCache()
	key := cacheKey(spec)
	if !cache.Enabled() || key == "" || spec.NNZ < CacheMinNNZ {
		return buildOperand(spec)
	}

	defer cache.Lock(key)()

	if op, err := tensor.OpenBinary(cache.Path(key)); err == nil {
		rec.Count("operand_cache.hits", 1)
		if n := cache.Size(key); n > 0 {
			rec.Count("operand_cache.bytes", n)
		}
		return op, nil
	}

	rec.Count("operand_cache.misses", 1)
	op, err := buildOperand(spec)
	if err != nil {
		return nil, err
	}
	// Best-effort store; a failed store is just a future miss.
	cache.Put(key, func(f *os.File) error { return op.WriteBinary(f) })
	return op, nil
}

// buildOperand builds the spec fresh, on the heap.
func buildOperand(spec Spec) (*tensor.Operand, error) {
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return &tensor.Operand{CSR: m}, nil
}
