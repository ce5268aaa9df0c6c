//go:build !unix

package diskcache

// mapFile is unavailable on this platform; Map reads the file instead.
func mapFile(path string) ([]byte, func() error, error) { return nil, nil, nil }
