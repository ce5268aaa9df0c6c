package exp

import (
	"drt/internal/accel/extensor"
	"drt/internal/par"
	"drt/internal/sim"
	"drt/internal/workloads"
)

// A sweep over machine/intersect/extractor knobs prices many points
// against few recorded schedules: every point whose tiling configuration
// maps to the same traceKey replays the same trace. runPoints exploits
// that shape — it groups a flattened sweep grid by trace key and prices
// each group in one streaming pass (runExtensorBatch), so a K-point
// machine sweep traverses its schedule once instead of K times.

// sweepPoint is one cell of a flattened sweep grid: a catalog entry run
// as variant V under one extensor configuration.
type sweepPoint struct {
	E   workloads.Entry
	V   extensor.Variant
	Opt extensor.Options
}

// runPoints prices every sweep point, batching points that share a
// recorded schedule. Results are returned in input order and are
// bit-identical to running each point through runExtensor individually
// (pinned by TestFig12BatchIdentical); only the traversal count and the
// cache's recording policy change.
//
// Grouping: points eligible for the trace cache group by (workload,
// variant, trace key); ineligible points stay singleton groups, so
// one-shot grids (Fig. 14's partition×workload cells) keep their per-cell
// parallelism and record-on-second-use policy. The par fan-out runs over
// groups with nnz×K weights, preserving the longest-first scheduling
// economics of the per-cell fan-outs this replaces.
func (c *Context) runPoints(points []sweepPoint) ([]sim.Result, error) {
	type groupKey struct {
		wkey string
		v    extensor.Variant
		key  traceKey
	}
	var order [][]int // group → input indices, in first-seen order
	byKey := make(map[groupKey]int)
	for i, p := range points {
		if retimeBatchOff || !c.traceEligible(p.V, p.Opt) {
			order = append(order, []int{i})
			continue
		}
		k := groupKey{wkey: p.E.Name, v: p.V, key: c.traceKeyFor(p.V, p.E.Name, p.Opt)}
		if gi, ok := byKey[k]; ok {
			order[gi] = append(order[gi], i)
			continue
		}
		byKey[k] = len(order)
		order = append(order, []int{i})
	}
	weights := make([]int64, len(order))
	for gi, g := range order {
		weights[gi] = cellWeight(points[g[0]].E, c.Opt.Scale) * int64(len(g))
	}
	groups, err := par.MapWith(c.pool(weights), len(order), func(gi int) ([]sim.Result, error) {
		g := order[gi]
		p0 := points[g[0]]
		w, err := c.Square(p0.E)
		if err != nil {
			return nil, err
		}
		opts := make([]extensor.Options, len(g))
		for j, i := range g {
			opts[j] = points[i].Opt
		}
		return c.runExtensorBatch(p0.V, p0.E.Name, w, opts)
	})
	if err != nil {
		return nil, err
	}
	out := make([]sim.Result, len(points))
	for gi, g := range order {
		for j, i := range g {
			out[i] = groups[gi][j]
		}
	}
	return out, nil
}
