package diskcache

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

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
