package diskcache

import "os"

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
