package tensor

// Fiber is one coordinate-payload list of the fibertree representation
// (Fig. 2c): a sorted list of coordinates with parallel payloads. For leaf
// fibers the payloads are scalar values.
type Fiber struct {
	Coords []int
	Vals   []float64
}

// Len returns the number of stored coordinates in the fiber.
func (f Fiber) Len() int { return len(f.Coords) }

// IntersectStats records the work performed by a two-fiber coordinate
// intersection; the intersection units in internal/sim convert these counts
// into cycles (skip-based: comparisons; serial-optimal: matches).
type IntersectStats struct {
	Comparisons int // coordinate comparisons performed
	Matches     int // coordinates present in both fibers
}

// Intersect walks two sorted coordinate lists and calls visit for every
// shared coordinate with the positions of the match in each list. It
// returns the work statistics. This is the skip-based two-finger
// intersection used by ExTensor's intersection unit.
func Intersect(a, b Fiber, visit func(coord, pa, pb int)) IntersectStats {
	var st IntersectStats
	pa, pb := 0, 0
	for pa < len(a.Coords) && pb < len(b.Coords) {
		st.Comparisons++
		ca, cb := a.Coords[pa], b.Coords[pb]
		switch {
		case ca == cb:
			st.Matches++
			if visit != nil {
				visit(ca, pa, pb)
			}
			pa++
			pb++
		case ca < cb:
			pa++
		default:
			pb++
		}
	}
	return st
}

// IntersectCount returns only the number of shared coordinates.
func IntersectCount(a, b Fiber) int {
	return Intersect(a, b, nil).Matches
}

// UnionCount returns the number of distinct coordinates present in either
// fiber; outer-product merge hardware performs this union.
func UnionCount(a, b Fiber) int {
	n, pa, pb := 0, 0, 0
	for pa < len(a.Coords) && pb < len(b.Coords) {
		n++
		switch {
		case a.Coords[pa] == b.Coords[pb]:
			pa++
			pb++
		case a.Coords[pa] < b.Coords[pb]:
			pa++
		default:
			pb++
		}
	}
	return n + (len(a.Coords) - pa) + (len(b.Coords) - pb)
}

// Dot returns the inner product of two fibers along with the intersection
// statistics: sum over shared coordinates of the pairwise value products.
func Dot(a, b Fiber) (float64, IntersectStats) {
	var sum float64
	st := Intersect(a, b, func(_, pa, pb int) {
		sum += a.Vals[pa] * b.Vals[pb]
	})
	return sum, st
}
