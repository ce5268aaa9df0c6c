package kernels

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"drt/internal/gen"
	"drt/internal/tensor"
)

func TestGustavsonMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m, k, n := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(20)+1
		a := gen.Uniform(m, k, m*k/3+1, rng.Int63())
		b := gen.Uniform(k, n, k*n/3+1, rng.Int63())
		z, _ := Gustavson(a, b)
		if err := z.Validate(); err != nil {
			t.Fatal(err)
		}
		want := a.ToDense().MatMul(b.ToDense())
		if !z.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("trial %d: gustavson != dense", trial)
		}
	}
}

func TestThreeDataflowsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m, k, n := rng.Intn(15)+1, rng.Intn(15)+1, rng.Intn(15)+1
		a := gen.Uniform(m, k, m*k/2+1, rng.Int63())
		b := gen.Uniform(k, n, k*n/2+1, rng.Int63())
		zg, sg := Gustavson(a, b)
		zi, si, _ := InnerProduct(a, b.Transpose())
		zo, so, _ := OuterProduct(a.Transpose(), b)
		if !zg.EqualApprox(zi, 1e-9) {
			t.Fatalf("trial %d: inner != gustavson", trial)
		}
		if !zg.EqualApprox(zo, 1e-9) {
			t.Fatalf("trial %d: outer != gustavson", trial)
		}
		// The paper: "A given workload has the same number of effectual
		// MACCs across all accelerators."
		if sg.MACCs != si.MACCs || sg.MACCs != so.MACCs {
			t.Fatalf("trial %d: MACCs differ: %d %d %d", trial, sg.MACCs, si.MACCs, so.MACCs)
		}
		if want := EffectualMACCs(a.Transpose(), b); want != sg.MACCs {
			t.Fatalf("trial %d: EffectualMACCs = %d, kernels = %d", trial, want, sg.MACCs)
		}
	}
}

func TestGustavsonIdentity(t *testing.T) {
	n := 12
	id := tensor.NewCOO(n, n)
	for i := 0; i < n; i++ {
		id.Append(i, i, 1)
	}
	eye := tensor.FromCOO(id)
	a := gen.RMAT(n, 40, 0.57, 0.19, 0.19, 3)
	z, st := Gustavson(a, eye)
	if !z.EqualApprox(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if st.MACCs != int64(a.NNZ()) {
		t.Fatalf("A·I MACCs = %d, want %d", st.MACCs, a.NNZ())
	}
}

// TestRestrictedPartition checks the core exactness property the
// simulators rely on: summing RestrictedGustavson over any grid partition
// of the (I,K,J) space reproduces the full kernel's MACC count. The
// partition is walked twice: I→K→J, and J→K→I, where consecutive calls
// share (kR, jR) and so reuse the scratch's row-range memo across calls.
// Every J→K→I call's whole TaskResult must equal a call on a fresh
// scratch.
func TestRestrictedPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(30)+2, rng.Intn(30)+2, rng.Intn(30)+2
		a := gen.Uniform(m, k, m*k/2+1, rng.Int63())
		b := gen.Uniform(k, n, k*n/2+1, rng.Int63())
		_, full := Gustavson(a, b)

		ti, tk, tj := rng.Intn(m)+1, rng.Intn(k)+1, rng.Intn(n)+1
		spa := NewSPA(b.Cols)
		var sum int64
		for i0 := 0; i0 < m; i0 += ti {
			for k0 := 0; k0 < k; k0 += tk {
				for j0 := 0; j0 < n; j0 += tj {
					r := RestrictedGustavson(a, b,
						Range{i0, i0 + ti}, Range{k0, k0 + tk}, Range{j0, j0 + tj}, spa)
					sum += r.MACCs
				}
			}
		}
		if sum != full.MACCs {
			t.Fatalf("trial %d: partitioned MACCs %d != full %d (tiles %d,%d,%d)", trial, sum, full.MACCs, ti, tk, tj)
		}

		sum = 0
		for j0 := 0; j0 < n; j0 += tj {
			for k0 := 0; k0 < k; k0 += tk {
				for i0 := 0; i0 < m; i0 += ti {
					iR, kR, jR := Range{i0, i0 + ti}, Range{k0, k0 + tk}, Range{j0, j0 + tj}
					sum += checkRestricted(t, a, b, iR, kR, jR, spa).MACCs
				}
			}
		}
		if sum != full.MACCs {
			t.Fatalf("trial %d: J→K→I partitioned MACCs %d != full %d (tiles %d,%d,%d)", trial, sum, full.MACCs, ti, tk, tj)
		}
	}
}

// checkRestricted runs RestrictedGustavson on spa and on a fresh scratch
// and fails unless the two TaskResults are equal, rows included.
func checkRestricted(t *testing.T, a, b *tensor.CSR, iR, kR, jR Range, spa *SPA) TaskResult {
	t.Helper()
	got := RestrictedGustavson(a, b, iR, kR, jR, spa)
	want := RestrictedGustavson(a, b, iR, kR, jR, nil)
	if got.MACCs != want.MACCs || got.ScannedA != want.ScannedA || got.OutputNNZ != want.OutputNNZ ||
		!slices.Equal(got.Rows, want.Rows) {
		t.Fatalf("i%v k%v j%v: reused scratch gives %+v, fresh scratch %+v", iR, kR, jR, got, want)
	}
	return got
}

// TestRestrictedMemoKey pins the key of the row-range memo that survives
// across calls: a call that switches B under equal windows, or that widens
// kR, must not read the ranges an earlier call left in the scratch.
func TestRestrictedMemoKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(30)+8, rng.Intn(30)+8, rng.Intn(30)+8
		a := gen.Uniform(m, k, m*k/3+1, rng.Int63())
		b1 := gen.Uniform(k, n, k*n/3+1, rng.Int63())
		b2 := gen.Uniform(k, n, k*n/3+1, rng.Int63())
		spa := NewSPA(n)
		iR := Range{0, m / 2}
		kR := Range{k / 4, k / 2}
		jR := Range{n / 4, 3 * n / 4}
		// B switches between calls; the windows stay equal.
		for _, b := range []*tensor.CSR{b1, b2, b2, b1} {
			checkRestricted(t, a, b, iR, kR, jR, spa)
		}
		// kR widens on both sides partway through an I sweep.
		for _, kw := range []Range{kR, {0, k / 2}, {0, k}, {0, k}} {
			checkRestricted(t, a, b1, iR, kw, jR, spa)
			checkRestricted(t, a, b1, Range{m / 2, m}, kw, jR, spa)
		}
	}
}

func TestRestrictedFullRangeEqualsFull(t *testing.T) {
	a := gen.RMAT(64, 300, 0.57, 0.19, 0.19, 9)
	b := gen.RMAT(64, 300, 0.57, 0.19, 0.19, 10)
	_, full := Gustavson(a, b)
	r := RestrictedGustavson(a, b, Range{0, 64}, Range{0, 64}, Range{0, 64}, nil)
	if r.MACCs != full.MACCs {
		t.Fatalf("restricted full-range MACCs %d != %d", r.MACCs, full.MACCs)
	}
	if r.OutputNNZ != full.OutputNNZ {
		t.Fatalf("restricted full-range output %d != %d", r.OutputNNZ, full.OutputNNZ)
	}
}

func TestSPA(t *testing.T) {
	s := NewSPA(10)
	s.Reset()
	s.Add(5, 1)
	s.Add(3, 2)
	s.Add(5, 1)
	cols, vals := s.Drain()
	if len(cols) != 2 || cols[0] != 3 || cols[1] != 5 || vals[0] != 2 || vals[1] != 2 {
		t.Fatalf("drain = %v %v", cols, vals)
	}
	s.Reset()
	if s.Touched() != 0 {
		t.Fatal("reset did not clear")
	}
	s.Add(3, 7)
	cols, vals = s.Drain()
	if len(cols) != 1 || vals[0] != 7 {
		t.Fatalf("stale value after reset: %v %v", cols, vals)
	}
}

func TestGramMatchesMatricized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		x := gen.Tensor3(rng.Intn(12)+2, rng.Intn(12)+2, rng.Intn(12)+2, rng.Intn(80)+5, rng.Int63())
		g1, s1 := Gram(x)
		g2, s2 := GramViaMatricize(x)
		if !g1.EqualApprox(g2, 1e-9) {
			t.Fatalf("trial %d: direct Gram != matricized Gram", trial)
		}
		if s1.MACCs != s2.MACCs {
			t.Fatalf("trial %d: Gram MACCs %d != matricized %d", trial, s1.MACCs, s2.MACCs)
		}
	}
}

func TestGramSymmetric(t *testing.T) {
	x := gen.Tensor3(10, 8, 6, 60, 11)
	g, _ := Gram(x)
	if !g.EqualApprox(g.Transpose(), 1e-12) {
		t.Fatal("Gram matrix not symmetric")
	}
	// Diagonal entries are squared norms: strictly positive for non-empty
	// slices.
	for r := range x.RootCoords {
		i, _, _ := x.Slice(r)
		if g.At(i, i) <= 0 {
			t.Fatalf("diagonal (%d,%d) = %g, want > 0", i, i, g.At(i, i))
		}
	}
}

func TestEffectualMACCsQuick(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%20) + 2
		a := gen.Uniform(n, n, n, seed)
		b := gen.Uniform(n, n, n, seed+1)
		_, st := Gustavson(a, b)
		return EffectualMACCs(a.Transpose(), b) == st.MACCs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictedSaturatedRows covers rows whose distinct output columns
// fill the whole J window before their last B segment: every third row of
// B is dense, so any A row that hits two of them saturates, including in
// a window clamped at B's last column. The whole TaskResult must match a
// brute-force count.
func TestRestrictedSaturatedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	saturated := 0
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(20)+4, rng.Intn(20)+6, rng.Intn(20)+6
		a := gen.Uniform(m, k, m*k/2+1, rng.Int63())
		co := tensor.NewCOO(k, n)
		for r := 0; r < k; r++ {
			for c := 0; c < n; c++ {
				if r%3 == 0 || rng.Intn(4) == 0 {
					co.Append(r, c, 1)
				}
			}
		}
		b := tensor.FromCOO(co)
		spa := NewSPA(n)
		iR, kR := Range{0, m}, Range{1, k}
		for _, jR := range []Range{{0, n}, {n / 3, n/3 + 2}, {n - 3, n + 5}} {
			got := checkRestricted(t, a, b, iR, kR, jR, spa)
			var want TaskResult
			for i := iR.Lo; i < iR.Hi; i++ {
				rw := RowWork{Row: i}
				cols := map[int]bool{}
				for p := a.Ptr[i]; p < a.Ptr[i+1]; p++ {
					kk := a.Idx[p]
					if !kR.Contains(kk) {
						continue
					}
					rw.AElems++
					for q := b.Ptr[kk]; q < b.Ptr[kk+1]; q++ {
						if jR.Contains(b.Idx[q]) {
							rw.MACCs++
							cols[b.Idx[q]] = true
						}
					}
				}
				rw.OutNNZ = len(cols)
				want.MACCs += rw.MACCs
				want.ScannedA += int64(rw.AElems)
				want.OutputNNZ += int64(rw.OutNNZ)
				if rw.AElems > 0 && rw.MACCs > 0 {
					want.Rows = append(want.Rows, rw)
				}
				if rw.OutNNZ == min(jR.Hi, n)-jR.Lo && rw.MACCs > int64(rw.OutNNZ) {
					saturated++
				}
			}
			if got.MACCs != want.MACCs || got.ScannedA != want.ScannedA || got.OutputNNZ != want.OutputNNZ ||
				!slices.Equal(got.Rows, want.Rows) {
				t.Fatalf("trial %d, j%v: got %+v, want %+v", trial, jR, got, want)
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no row saturated its J window")
	}
}
