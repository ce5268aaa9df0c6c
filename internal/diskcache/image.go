package diskcache

import (
	"io"
	"os"
	"slices"
)

// Map returns the image of the file at path, the input of the .drtb and
// .drtt decoders. With mmap set, and where the platform and filesystem
// allow it, the image is a read-only shared mapping that unmap releases;
// otherwise the file is read into the heap and unmap is nil. Callers set
// mmap only when their host can use the file's little-endian records in
// place.
func Map(path string, mmap bool) (data []byte, unmap func() error, err error) {
	if mmap {
		if data, unmap, err = mapFile(path); data != nil || err != nil {
			return data, unmap, err
		}
	}
	data, err = os.ReadFile(path)
	return data, nil, err
}

// imageChunk is how far ReadImage allocates ahead of the bytes it has
// read.
const imageChunk = 1 << 20

// ReadImage reads a size-byte file image from a stream whose first
// len(head) bytes the caller has already read into head, to learn size
// from the header. The rest arrives one chunk at a time, each allocated
// only once the previous one is full, and the image is assembled once
// every byte is in, so a corrupt header's size allocates at most one
// chunk the stream does not back: the read fails with
// io.ErrUnexpectedEOF (or io.EOF at a chunk boundary) instead. A size
// that would overflow int64 is passed as math.MaxInt64, more than any
// stream holds.
func ReadImage(r io.Reader, head []byte, size int64) ([]byte, error) {
	parts := [][]byte{head}
	for n := int64(len(head)); n < size; {
		part := make([]byte, min(size-n, imageChunk))
		if _, err := io.ReadFull(r, part); err != nil {
			return nil, err
		}
		parts = append(parts, part)
		n += int64(len(part))
	}
	return slices.Concat(parts...), nil
}
