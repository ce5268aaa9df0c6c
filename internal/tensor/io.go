package tensor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a MatrixMarket coordinate-format matrix (the
// format SuiteSparse distributes), supporting the general, symmetric and
// skew-symmetric qualifiers and the pattern field type (values default to
// 1). The returned matrix is CSR. Array (dense) format is rejected, as are
// dimensions that do not fit int32, an entry count outside [0, rows·cols]
// and a non-square symmetric or skew-symmetric matrix.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("tensor: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("tensor: not a MatrixMarket matrix header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("tensor: only coordinate format supported, got %q", header[2])
	}
	pattern := false
	symmetric, skew := false, false
	for _, q := range header[3:] {
		switch q {
		case "pattern":
			pattern = true
		case "real", "integer", "double":
		case "complex", "hermitian":
			return nil, fmt.Errorf("tensor: %s matrices not supported", q)
		case "general":
		case "symmetric":
			symmetric = true
		case "skew-symmetric":
			symmetric, skew = true, true
		default:
			return nil, fmt.Errorf("tensor: unknown MatrixMarket qualifier %q", q)
		}
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("tensor: bad size line %q: %v", line, err)
		}
		break
	}
	// Coordinates must fit the compact (int32) index width, which also
	// keeps rows·cols inside int.
	if rows <= 0 || cols <= 0 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("tensor: bad dimensions %dx%d", rows, cols)
	}
	if nnz < 0 || int64(nnz) > int64(rows)*int64(cols) {
		return nil, fmt.Errorf("tensor: bad entry count %d for a %dx%d matrix", nnz, rows, cols)
	}
	if symmetric && rows != cols {
		return nil, fmt.Errorf("tensor: symmetric matrix must be square, got %dx%d", rows, cols)
	}

	m := NewCOO(rows, cols)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("tensor: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("tensor: bad row index %q", f[0])
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("tensor: bad column index %q", f[1])
		}
		v := 1.0
		if !pattern {
			if len(f) < 3 {
				return nil, fmt.Errorf("tensor: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("tensor: bad value %q", f[2])
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("tensor: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		m.Append(i-1, j-1, v) // MatrixMarket is 1-based
		if symmetric && i != j {
			sv := v
			if skew {
				sv = -v
			}
			m.Append(j-1, i-1, sv)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tensor: reading MatrixMarket stream: %w", err)
	}
	if read < nnz {
		return nil, fmt.Errorf("tensor: truncated MatrixMarket stream: ended after %d of %d entries", read, nnz)
	}
	return FromCOO(m), nil
}

// WriteMatrixMarket emits the matrix in MatrixMarket coordinate general
// format. Each entry line is assembled with strconv appends into one
// reused buffer — a single buffered write per non-zero instead of a
// format-string parse and several small writes.
func WriteMatrixMarket[T Ix](w io.Writer, m *Mat[T]) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	for i := 0; i < m.Rows; i++ {
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			buf = buf[:0]
			buf = strconv.AppendInt(buf, int64(i)+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(m.Idx[p])+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, m.Val[p], 'g', 17, 64)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFROSTT parses a FROSTT-style .tns 3-tensor: whitespace-separated
// lines of "i j k value" with 1-based coordinates, comments starting with
// '#'. Dimensions are inferred as the per-mode maxima.
func ReadFROSTT(r io.Reader) (*CSF3, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var is, js, ks []int
	var vs []float64
	maxI, maxJ, maxK := 0, 0, 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("tensor: .tns line %q needs 4 fields (only 3-tensors supported)", line)
		}
		if len(f) > 4 {
			return nil, fmt.Errorf("tensor: .tns line %q has %d fields; only 3-tensors supported", line, len(f))
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		k, err3 := strconv.Atoi(f[2])
		v, err4 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("tensor: bad .tns line %q", line)
		}
		if i < 1 || j < 1 || k < 1 {
			return nil, fmt.Errorf("tensor: .tns coordinates must be 1-based, got %q", line)
		}
		is, js, ks, vs = append(is, i-1), append(js, j-1), append(ks, k-1), append(vs, v)
		if i > maxI {
			maxI = i
		}
		if j > maxJ {
			maxJ = j
		}
		if k > maxK {
			maxK = k
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tensor: reading .tns stream: %w", err)
	}
	t := NewCOO3(maxI, maxJ, maxK)
	for p := range is {
		t.Append(is[p], js[p], ks[p], vs[p])
	}
	return FromCOO3(t), nil
}
