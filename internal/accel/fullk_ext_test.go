package accel_test

import (
	"testing"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/sim"
)

// TestFullKPathResultsIdentical pins the full-K path end to end: with
// every task forced through RestrictedGustavson (accel.SetFullKOff), the
// nine drtsim designs return the Results of the default path on the
// diamond, R-MAT and tall-skinny workloads, and traces recorded both ways
// retime to the same Results under several machines.
func TestFullKPathResultsIdentical(t *testing.T) {
	opt := extensor.DefaultOptions()
	opt.Machine.GlobalBuffer = 24 << 10
	opt.Machine.PEBuffer = 2 << 10
	opt.Machine.PEs = 16
	retimes := make([]extensor.Options, 3)
	for n := range retimes {
		retimes[n] = opt
		retimes[n].Machine.DRAMBandwidth *= float64(n + 1)
		retimes[n].Machine.PEs = 8 << n
	}
	// results runs every design on w and retimes an ExTensor-OP-DRT and
	// a pinned ExTensor-OP trace, in a fixed order.
	results := func(w *accel.Workload) []sim.Result {
		t.Helper()
		var rs []sim.Result
		for _, v := range []extensor.Variant{extensor.Original, extensor.OP, extensor.OPDRT} {
			r, err := extensor.Run(v, w, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", w.Name, v, err)
			}
			rs = append(rs, r)
		}
		for _, d := range []accel.Design{accel.OuterSPACE, accel.MatRaptor} {
			for _, tl := range []accel.Tiling{accel.Untiled, accel.SUC, accel.DRT} {
				r, err := d.Run(tl, w, opt.Machine, opt.Partition, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", w.Name, d.Variant(tl), err)
				}
				rs = append(rs, r)
			}
		}
		shape, err := extensor.BestStaticShape(extensor.OP, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		pinned := opt
		pinned.StaticShape = shape
		for _, vo := range []struct {
			v   extensor.Variant
			opt extensor.Options
		}{{extensor.OPDRT, opt}, {extensor.OP, pinned}} {
			tr, err := extensor.Record(vo.v, w, vo.opt)
			if err != nil {
				t.Fatalf("%s %v: %v", w.Name, vo.v, err)
			}
			rs = append(rs, extensor.RetimeBatch(vo.v, tr, retimes)...)
		}
		return rs
	}
	for _, w := range accel.FullKWorkloads(t) {
		restore := accel.SetFullKOff(true)
		want := results(w)
		restore()
		got := results(w)
		for n := range want {
			if got[n] != want[n] {
				t.Errorf("%s result %d:\n got %+v\nwant %+v", w.Name, n, got[n], want[n])
			}
		}
	}
}
