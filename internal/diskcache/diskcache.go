// Package diskcache is the shared machinery behind the repo's
// content-addressed on-disk caches: the operand cache (gen.CachedBuild,
// .drtb files) and the persistent trace store (exp, .drtt files). It owns
// the parts both need and neither should reimplement — env-relocatable
// root resolution, sha256 content addressing, atomic temp+rename writes so
// concurrent processes only ever observe complete entries, per-key
// in-process singleflight, an optional byte-budget LRU sweep over the
// stored files, and the file image both formats' decoders read, mapped
// or read into the heap by Map.
//
// A Cache never fails a computation the caller could complete without it:
// every I/O error degrades to a miss (lookups) or a no-op (stores), and a
// disabled cache (empty root) turns every operation into a cheap no-op.
package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Dir resolves a cache root from an environment variable. The values
// "off", "none" and "0" disable the cache (reported as the empty string);
// unset falls back to <user cache dir>/<defaultSubdir>, or to disabled
// when defaultSubdir is empty or the user cache dir is unresolvable.
func Dir(envVar, defaultSubdir string) string {
	switch v := os.Getenv(envVar); v {
	case "":
		if defaultSubdir == "" {
			return ""
		}
		base, err := os.UserCacheDir()
		if err != nil {
			return ""
		}
		return filepath.Join(base, defaultSubdir)
	case "off", "none", "0":
		return ""
	default:
		return v
	}
}

// Key content-addresses a canonical blob: the hex sha256 of its bytes.
// Callers append whatever version salt distinguishes format generations
// before hashing, so stale entries are simply never looked up again.
func Key(blob []byte) string {
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// Cache is one on-disk cache: files named <root>/<key><ext>. The zero
// value and a nil *Cache are valid, permanently disabled caches.
type Cache struct {
	root   string
	ext    string // entry filename extension, e.g. ".drtb"
	budget int64  // stored-byte budget; <= 0 disables eviction

	// flight is the refcounted per-key lock table behind Lock. Entries
	// exist only while some goroutine holds or waits on them — the last
	// unlock deletes the key — so a long-lived process sweeping many
	// distinct keys does not grow the table without bound.
	flightMu sync.Mutex
	flight   map[string]*flightLock
}

// flightLock is one in-flight key's lock plus the count of goroutines
// holding or waiting on it.
type flightLock struct {
	sync.Mutex
	refs int
}

// New returns a cache rooted at root (empty = disabled) whose entries use
// the given filename extension. budget, when positive, bounds the total
// bytes of stored entries: each Put evicts least-recently-used entries
// (by file mtime, which Touch refreshes on hits) until the rest fit.
func New(root, ext string, budget int64) *Cache {
	return &Cache{root: root, ext: ext, budget: budget}
}

// Enabled reports whether the cache can store anything at all.
func (c *Cache) Enabled() bool { return c != nil && c.root != "" }

// Root returns the cache directory ("" when disabled).
func (c *Cache) Root() string {
	if c == nil {
		return ""
	}
	return c.root
}

// Path returns the entry file for key. Only meaningful when Enabled.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.root, key+c.ext)
}

// Lock serializes in-process work on one key — concurrent misses of the
// same entry compute it once — and returns the unlock. Cross-process
// races are benign by construction: both processes compute, both Put
// atomically, last rename wins with identical content.
func (c *Cache) Lock(key string) func() {
	if !c.Enabled() {
		return func() {}
	}
	c.flightMu.Lock()
	if c.flight == nil {
		c.flight = make(map[string]*flightLock)
	}
	fl := c.flight[key]
	if fl == nil {
		fl = &flightLock{}
		c.flight[key] = fl
	}
	fl.refs++
	c.flightMu.Unlock()
	fl.Lock()
	return func() {
		fl.Unlock()
		c.flightMu.Lock()
		if fl.refs--; fl.refs == 0 {
			delete(c.flight, key)
		}
		c.flightMu.Unlock()
	}
}

// Has reports whether an entry for key exists on disk.
func (c *Cache) Has(key string) bool {
	if !c.Enabled() {
		return false
	}
	st, err := os.Stat(c.Path(key))
	return err == nil && st.Mode().IsRegular()
}

// Size returns the stored entry's byte size, or 0 when absent.
func (c *Cache) Size(key string) int64 {
	if !c.Enabled() {
		return 0
	}
	st, err := os.Stat(c.Path(key))
	if err != nil {
		return 0
	}
	return st.Size()
}

// Touch bumps the entry's mtime so LRU eviction sees the hit. Best-effort.
func (c *Cache) Touch(key string) {
	if !c.Enabled() {
		return
	}
	now := time.Now()
	os.Chtimes(c.Path(key), now, now)
}

// Remove deletes the entry for key, if present. Callers use it to purge
// entries that failed to decode (corrupt or truncated files are misses,
// and removing them turns the next lookup into a clean miss too).
func (c *Cache) Remove(key string) {
	if !c.Enabled() {
		return
	}
	os.Remove(c.Path(key))
}

// Put stores one entry atomically: write writes the content to a temp
// file in the cache directory, which is then renamed into place, so a
// reader never observes a partial entry. A nil error from write that
// still left a failed close or rename degrades to a silent no-op — the
// entry is just a future miss. When a byte budget is set, older entries
// are evicted (LRU by mtime) until the stored total fits; the number of
// evicted files is returned.
func (c *Cache) Put(key string, write func(f *os.File) error) (evicted int, err error) {
	if !c.Enabled() {
		return 0, nil
	}
	if err := os.MkdirAll(c.root, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(c.root, ".tmp-*"+c.ext)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), c.Path(key)); err != nil {
		return 0, err
	}
	return c.evict(key), nil
}

// evict removes least-recently-used entries until the stored bytes fit
// the budget. The entry just written (keep) is never evicted by its own
// Put. Only regular files carrying the cache's extension are considered,
// so foreign files in a shared directory are left alone.
func (c *Cache) evict(keep string) int {
	if c.budget <= 0 {
		return 0
	}
	ents, err := os.ReadDir(c.root)
	if err != nil {
		return 0
	}
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	keepPath := c.Path(keep)
	for _, de := range ents {
		if de.IsDir() || filepath.Ext(de.Name()) != c.ext || de.Name()[0] == '.' {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		p := filepath.Join(c.root, de.Name())
		total += info.Size()
		if p == keepPath {
			continue
		}
		files = append(files, entry{path: p, size: info.Size(), mtime: info.ModTime()})
	}
	if total <= c.budget {
		return 0
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	evicted := 0
	for _, f := range files {
		if total <= c.budget {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			evicted++
		}
	}
	return evicted
}
