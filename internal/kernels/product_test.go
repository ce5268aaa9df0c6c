package kernels

import (
	"math/rand"
	"slices"
	"testing"

	"drt/internal/gen"
	"drt/internal/tensor"
)

// tileCounts is the oracle for CountProductTiles: z's non-zeros counted
// per mt×mt micro tile, band by band, with ascending tile columns.
func tileCounts(z *tensor.CSR, mt int) (cols [][]int, nnz [][]int64) {
	bands := (z.Rows + mt - 1) / mt
	cols, nnz = make([][]int, bands), make([][]int64, bands)
	for gr := range bands {
		cnt := map[int]int64{}
		for i := gr * mt; i < min((gr+1)*mt, z.Rows); i++ {
			for _, j := range z.Idx[z.Ptr[i]:z.Ptr[i+1]] {
				cnt[j/mt]++
			}
		}
		for c := range cnt {
			cols[gr] = append(cols[gr], c)
		}
		slices.Sort(cols[gr])
		for _, c := range cols[gr] {
			nnz[gr] = append(nnz[gr], cnt[c])
		}
	}
	return cols, nnz
}

// TestCountProductTilesMatchesGustavson checks the structural pass against
// Gustavson's product on random shapes (generated values never cancel),
// at power-of-two and other micro tiles and several worker counts: every
// band's tile columns and counts, and the MACCs.
func TestCountProductTilesMatchesGustavson(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		m, k, n := rng.Intn(90)+1, rng.Intn(70)+1, rng.Intn(80)+1
		a := gen.Uniform(m, k, rng.Intn(m*k/2+1)+1, rng.Int63())
		b := gen.Uniform(k, n, rng.Intn(k*n/2+1)+1, rng.Int63())
		if trial%3 == 0 {
			a = gen.RMAT(m, 4*m, 0.57, 0.19, 0.19, rng.Int63())
			b = gen.RMAT(m, 4*m, 0.57, 0.19, 0.19, rng.Int63())
		}
		z, st := Gustavson(a, b)
		for _, mt := range []int{1, 3, 4, 8} {
			wantCols, wantNNZ := tileCounts(z, mt)
			for _, workers := range []int{1, 2, 3, 8} {
				var gotCols [][]int
				var gotNNZ [][]int64
				maccs := CountProductTiles(a, b, mt, workers, func(cols []int, nnz []int64) {
					gotCols, gotNNZ = append(gotCols, slices.Clone(cols)), append(gotNNZ, slices.Clone(nnz))
				})
				if maccs != st.MACCs {
					t.Fatalf("trial %d mt %d workers %d: MACCs %d, Gustavson %d", trial, mt, workers, maccs, st.MACCs)
				}
				if len(gotCols) != len(wantCols) {
					t.Fatalf("trial %d mt %d workers %d: %d bands, want %d", trial, mt, workers, len(gotCols), len(wantCols))
				}
				for gr := range wantCols {
					if !slices.Equal(gotCols[gr], wantCols[gr]) || !slices.Equal(gotNNZ[gr], wantNNZ[gr]) {
						t.Fatalf("trial %d mt %d workers %d band %d: tiles %v %v, want %v %v",
							trial, mt, workers, gr, gotCols[gr], gotNNZ[gr], wantCols[gr], wantNNZ[gr])
					}
				}
			}
		}
	}
}
