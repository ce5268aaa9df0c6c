//go:build unix

package diskcache

import (
	"os"
	"syscall"
)

// mapFile memory-maps the file at path read-only. It returns no image,
// and no error, for an empty file or a filesystem that refuses the
// mapping (or an exhausted address space), so Map reads the file instead.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 || size != int64(int(size)) {
		return nil, nil, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, nil
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
