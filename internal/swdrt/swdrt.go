// Package swdrt implements Study 3 (Sec. 5.2.3, Sec. 6.3): the software
// variant of DRT. The CPU's last-level cache plays the role of the fast
// memory, macro tiles are computed with an inner-product dataflow (perfect
// output reuse), and — as the paper chooses — the *alternating* DRT growth
// variant is used because inner product benefits from balanced input
// reuse. The study is an oracle, best-case memory-traffic analysis: it
// compares untiled, S-U-C-tiled and DRT-tiled SpMSpM traffic (Fig. 11).
// The design itself is the engine preset accel.SoftwareLLC.
package swdrt

import (
	"math"

	"drt/internal/accel"
	"drt/internal/sim"
)

// Options configures the software study.
type Options struct {
	// LLCBytes is the cache treated as the fast memory (30 MB on the
	// evaluation machine).
	LLCBytes  int64
	Partition sim.Partition
}

// DefaultOptions matches the evaluation machine.
func DefaultOptions() Options {
	return Options{LLCBytes: 30 << 20, Partition: sim.DefaultPartition()}
}

// Study holds the three variants' memory traffic for one workload.
type Study struct {
	UntiledBytes int64
	SUCBytes     int64
	DNCBytes     int64
}

// SUCImprovement returns untiled/S-U-C traffic (Fig. 11's SW SUC series).
func (s Study) SUCImprovement() float64 { return ratio(s.UntiledBytes, s.SUCBytes) }

// DNCImprovement returns untiled/DRT traffic (Fig. 11's SW DNC series).
func (s Study) DNCImprovement() float64 { return ratio(s.UntiledBytes, s.DNCBytes) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return math.Inf(1)
	}
	return float64(num) / float64(den)
}

// Run measures all three variants on one workload: the accel.SoftwareLLC
// design with the LLC as its global buffer.
func Run(w *accel.Workload, opt Options) (Study, error) {
	// Bandwidth and PE settings are irrelevant to a traffic-only study but
	// must be non-zero.
	m := sim.DefaultMachine()
	m.GlobalBuffer = opt.LLCBytes
	var r [3]sim.Result
	for i, t := range []accel.Tiling{accel.Untiled, accel.SUC, accel.DRT} {
		var err error
		if r[i], err = accel.SoftwareLLC.Run(t, w, m, opt.Partition, nil); err != nil {
			return Study{}, err
		}
	}
	return Study{UntiledBytes: r[0].Traffic.Total(), SUCBytes: r[1].Traffic.Total(), DNCBytes: r[2].Traffic.Total()}, nil
}
