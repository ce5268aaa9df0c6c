package diskcache

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestReadImage pins the stream reader: an image spanning several chunks
// comes back byte for byte with the header in front, and a size the
// stream does not back, up to math.MaxInt64, is a read error, never a
// panic, that allocated at most one chunk more than the stream holds.
func TestReadImage(t *testing.T) {
	blob := make([]byte, 2*imageChunk+12345)
	rand.New(rand.NewSource(1)).Read(blob)
	head, rest := blob[:40], blob[40:]
	got, err := ReadImage(bytes.NewReader(rest), append([]byte(nil), head...), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("image differs from the stream")
	}
	for _, size := range []int64{int64(len(blob)) + 1, 1 << 40, math.MaxInt64} {
		cr := &countingReader{r: bytes.NewReader(rest)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadImage(cr, head, size)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("size %d: a short stream read without error", size)
		}
		if cr.n != int64(len(rest)) {
			t.Fatalf("size %d: read %d of the stream's %d bytes", size, cr.n, len(rest))
		}
		// 64 KiB of slack covers the chunk list and the test runtime.
		if got, most := after.TotalAlloc-before.TotalAlloc, uint64(len(rest)+imageChunk+64<<10); got > most {
			t.Fatalf("size %d: allocated %d bytes for a %d-byte stream, want ≤ %d", size, got, len(rest), most)
		}
	}
}

// TestMap pins the opener: a file's image is its bytes on both paths, the
// mapped one only where asked for and available, and an empty file is an
// empty heap image rather than a failed mapping.
func TestMap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.bin")
	want := []byte("a file image of some bytes")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		data, unmap, err := Map(path, mmap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("mmap=%v: image %q, want %q", mmap, data, want)
		}
		if !mmap && unmap != nil {
			t.Fatal("heap read returned an unmap")
		}
		if mmap && runtime.GOOS == "linux" && unmap == nil {
			t.Fatal("linux did not map the file")
		}
		if unmap != nil {
			if err := unmap(); err != nil {
				t.Fatal(err)
			}
		}
	}
	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, unmap, err := Map(empty, true); err != nil || len(data) != 0 || unmap != nil {
		t.Fatalf("empty file: %d bytes, unmap %v, err %v", len(data), unmap != nil, err)
	}
	if _, _, err := Map(filepath.Join(dir, "absent.bin"), true); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want IsNotExist", err)
	}
}
