package gen

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drt/internal/obs"
)

var cacheSpec = Spec{Kind: "uniform", Rows: 2000, Cols: 2000, NNZ: CacheMinNNZ, Seed: 5}

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.drtb"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCachedBuildRoundTrip pins cached ≡ fresh: the first call misses and
// stores, the second hits (typically mmap-backed), and both are equal to a
// direct Build of the same spec.
func TestCachedBuildRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("DRT_OPERAND_CACHE", dir)
	rec := obs.NewCollector()

	cold, err := CachedBuild(cacheSpec, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("operand_cache.misses"); got != 1 {
		t.Fatalf("cold call: misses = %d, want 1", got)
	}
	if got := rec.Counter("operand_cache.hits"); got != 0 {
		t.Fatalf("cold call: hits = %d, want 0", got)
	}
	if files := cacheFiles(t, dir); len(files) != 1 {
		t.Fatalf("cold call left %d cache files, want 1", len(files))
	}

	warm, err := CachedBuild(cacheSpec, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("operand_cache.hits"); got != 1 {
		t.Fatalf("warm call: hits = %d, want 1", got)
	}
	if rec.Counter("operand_cache.bytes") <= 0 {
		t.Fatal("warm call served 0 bytes from cache")
	}

	fresh, err := cacheSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Equal(fresh) {
		t.Fatal("cold CachedBuild differs from Spec.Build")
	}
	if !warm.Equal(fresh) {
		t.Fatal("warm CachedBuild differs from Spec.Build")
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	var prom strings.Builder
	if err := rec.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"drt_operand_cache_hits", "drt_operand_cache_misses", "drt_operand_cache_bytes"} {
		if !strings.Contains(prom.String(), name) {
			t.Errorf("Prometheus export missing %s", name)
		}
	}
}

// TestCachedBuildDisabled pins that "off" (and small specs) bypass the
// disk entirely.
func TestCachedBuildDisabled(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("DRT_OPERAND_CACHE", "off")
	if CacheDir() != "" {
		t.Fatal(`CacheDir() != "" with DRT_OPERAND_CACHE=off`)
	}
	rec := obs.NewCollector()
	if _, err := CachedBuild(cacheSpec, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Counter("operand_cache.misses")+rec.Counter("operand_cache.hits") != 0 {
		t.Fatal("disabled cache still counted traffic")
	}

	t.Setenv("DRT_OPERAND_CACHE", dir)
	small := Spec{Kind: "uniform", Rows: 100, Cols: 100, NNZ: 500, Seed: 1}
	op, err := CachedBuild(small, rec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := small.Build()
	if !op.Equal(fresh) {
		t.Fatal("small-spec CachedBuild differs from Spec.Build")
	}
	if files := cacheFiles(t, dir); len(files) != 0 {
		t.Fatalf("small spec (nnz < CacheMinNNZ) wrote %d cache files", len(files))
	}
}

// TestCacheDirDefault pins the default location under the user cache dir.
func TestCacheDirDefault(t *testing.T) {
	t.Setenv("DRT_OPERAND_CACHE", "")
	base, err := os.UserCacheDir()
	if err != nil {
		t.Skip("no user cache dir on this host")
	}
	if got, want := CacheDir(), filepath.Join(base, "drt-operands"); got != want {
		t.Fatalf("CacheDir() = %q, want %q", got, want)
	}
}

// TestCachedBuildRejectsCorruptEntry pins the cache's promise that it can
// never fail a run: a correctly sized entry whose last column index is
// out of range is a miss, and the fresh build replaces it.
func TestCachedBuildRejectsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("DRT_OPERAND_CACHE", dir)
	if _, err := CachedBuild(cacheSpec, nil); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cold call left %d cache files, want 1", len(files))
	}
	fresh, err := cacheSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Idx starts right after the 40-byte header and the rows+1 segment
	// bounds; Idx's last entry ends its row, so setting it to Cols breaks
	// only the range check.
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	last := 40 + 8*(fresh.Rows+1) + 8*(fresh.NNZ()-1)
	binary.LittleEndian.PutUint64(blob[last:], uint64(fresh.Cols))
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewCollector()
	op, err := CachedBuild(cacheSpec, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if rec.Counter("operand_cache.hits") != 0 || rec.Counter("operand_cache.misses") != 1 {
		t.Errorf("corrupt entry: %d hits, %d misses; want a miss", rec.Counter("operand_cache.hits"), rec.Counter("operand_cache.misses"))
	}
	if !op.Equal(fresh) {
		t.Fatal("CachedBuild served the corrupt entry")
	}
	again, err := CachedBuild(cacheSpec, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec.Counter("operand_cache.hits") != 1 || !again.Equal(fresh) {
		t.Error("the rebuilt entry did not replace the corrupt one")
	}
}

// ix32Entry rewrites a .drtb image of a rows-row, nnz-point matrix into the
// retired 32-bit index layout: flag bit 0 set, Ptr and Idx as int32, zero
// padding to the next multiple of 8, then Val unchanged.
func ix32Entry(wide []byte, rows, nnz int) []byte {
	out := append([]byte(nil), wide[:40]...)
	binary.LittleEndian.PutUint32(out[8:], 1)
	end := 40 + 8*(rows+1+nnz)
	for p := 40; p < end; p += 8 {
		out = binary.LittleEndian.AppendUint32(out, uint32(binary.LittleEndian.Uint64(wide[p:])))
	}
	if len(out)%8 != 0 {
		out = append(out, 0, 0, 0, 0)
	}
	return append(out, wide[end:]...)
}

// TestCachedBuildReplacesIx32Entry pins that an entry stored in the
// retired 32-bit index layout is a miss: the fresh build replaces it with
// the 64-bit entry, which the next call hits.
func TestCachedBuildReplacesIx32Entry(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("DRT_OPERAND_CACHE", dir)
	if _, err := CachedBuild(cacheSpec, nil); err != nil {
		t.Fatal(err)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("cold call left %d cache files, want 1", len(files))
	}
	fresh, err := cacheSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], ix32Entry(wide, fresh.Rows, fresh.NNZ()), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.NewCollector()
	op, err := CachedBuild(cacheSpec, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if rec.Counter("operand_cache.hits") != 0 || rec.Counter("operand_cache.misses") != 1 {
		t.Errorf("32-bit entry: %d hits, %d misses; want a miss", rec.Counter("operand_cache.hits"), rec.Counter("operand_cache.misses"))
	}
	if !op.Equal(fresh) {
		t.Fatal("CachedBuild differs from Spec.Build after a 32-bit entry")
	}
	if blob, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(blob, wide) {
		t.Fatalf("the 32-bit entry was not replaced by the 64-bit one (read error %v)", err)
	}
	again, err := CachedBuild(cacheSpec, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec.Counter("operand_cache.hits") != 1 || !again.Equal(fresh) {
		t.Error("the rebuilt entry was not hit")
	}
}
