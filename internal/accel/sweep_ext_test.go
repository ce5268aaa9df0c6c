package accel_test

import (
	"bytes"
	"testing"

	"drt/internal/accel"
	"drt/internal/accel/extensor"
	"drt/internal/core"
	"drt/internal/sim"
)

// TestSweepReplayResultsIdentical pins the PE level's J-sweep replay end
// to end: with every sweep walked (accel.SetSweepReplayOff), the nine
// drtsim designs return the Results of the default path on the diamond,
// R-MAT and tall-skinny workloads under greedy and alternating growth,
// ExTensor-OP-DRT traces recorded both ways encode to the same .drtt
// bytes and retime to the same Results under several machines, and every
// workload replays at least one sweep.
func TestSweepReplayResultsIdentical(t *testing.T) {
	base := extensor.DefaultOptions()
	base.Machine.GlobalBuffer = 24 << 10
	base.Machine.PEBuffer = 2 << 10
	base.Machine.PEs = 16
	// results runs every design on w under opt, records an
	// ExTensor-OP-DRT trace and retimes it, in a fixed order, returning
	// the Results and the trace's encoding.
	results := func(w *accel.Workload, opt extensor.Options) ([]sim.Result, []byte) {
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
		tr, err := extensor.Record(extensor.OPDRT, w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		retimes := make([]extensor.Options, 3)
		for n := range retimes {
			retimes[n] = opt
			retimes[n].Machine.DRAMBandwidth *= float64(n + 1)
			retimes[n].Machine.PEs = 8 << n
		}
		rs = append(rs, extensor.RetimeBatch(extensor.OPDRT, tr, retimes)...)
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return rs, buf.Bytes()
	}
	for _, w := range accel.FullKWorkloads(t) {
		before := accel.SweepReplays()
		for _, s := range []core.Strategy{core.GreedyContractedFirst, core.Alternating} {
			opt := base
			opt.Strategy = s
			restore := accel.SetSweepReplayOff(true)
			want, wantTrace := results(w, opt)
			restore()
			got, gotTrace := results(w, opt)
			for n := range want {
				if got[n] != want[n] {
					t.Errorf("%s %v result %d:\n got %+v\nwant %+v", w.Name, s, n, got[n], want[n])
				}
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("%s %v: replayed trace encodes to %d bytes that differ from the walked trace's %d",
					w.Name, s, len(gotTrace), len(wantTrace))
			}
		}
		if accel.SweepReplays() == before {
			t.Errorf("%s: no J sweep replayed: the test checks nothing", w.Name)
		}
	}
}
