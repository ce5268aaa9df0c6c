package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Snapshot mirrors the JSON document scripts/bench.sh writes: one full
// benchmark run with its environment stamp. Series is derived from the
// filename: BENCH_<date>.json is the default (scaled) series, and a tag
// between the prefix and the date — BENCH_scale1_<date>.json — names a
// separate series, so full-scale runs never pollute the scaled drift
// baselines (their ns/op differ by orders of magnitude).
type Snapshot struct {
	File      string `json:"-"`
	Series    string `json:"-"`
	Date      string `json:"date"`
	Go        string `json:"go"`
	Benchtime string `json:"benchtime"`
	Goos      string `json:"goos"`
	Goarch    string `json:"goarch"`
	// The host stamp: the CPUs the OS offered the run, the GOMAXPROCS it
	// used and the CPU model. Snapshots written before the stamp existed
	// leave all three zero.
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Benchmarks []Point `json:"benchmarks"`
}

// Host names the machine the snapshot measured, or "unstamped" when the
// snapshot carries no host stamp.
func (s Snapshot) Host() string {
	if s.NumCPU == 0 && s.CPUModel == "" {
		return "unstamped"
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d", s.CPUModel, s.NumCPU, s.GOMAXPROCS)
}

// Point is one benchmark's result inside a snapshot.
type Point struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Trend is one benchmark's series across every snapshot that ran it, in
// snapshot order (oldest first).
type Trend struct {
	Name    string
	Points  []Point
	BestNs  float64 // minimum ns/op over the series
	WorstNs float64 // maximum ns/op over the series
}

// Tolerance defines when a Trend counts as regressed: the latest point
// against the series best.
type Tolerance struct {
	NsGrowth    float64 // fractional ns/op growth allowed (0.25 = +25%)
	AllocFactor float64 // allocs/op multiple allowed (2.0 = 2x)
}

func (t Trend) First() Point  { return t.Points[0] }
func (t Trend) Latest() Point { return t.Points[len(t.Points)-1] }

// NsGrowth is the latest point's fractional ns/op growth over the series
// best (0 when latest is the best, 0.5 for +50%).
func (t Trend) NsGrowth() float64 {
	if t.BestNs <= 0 {
		return 0
	}
	return t.Latest().NsPerOp/t.BestNs - 1
}

// Regressed reports why the trend violates the tolerance ("" when it
// doesn't): ns/op drift and/or allocs/op growth of the latest snapshot
// over the series best.
func (t Trend) Regressed(tol Tolerance) string {
	reason := ""
	if tol.NsGrowth > 0 && t.NsGrowth() > tol.NsGrowth {
		reason = fmt.Sprintf("ns/op %+.0f%%", 100*t.NsGrowth())
	}
	bestAllocs := t.Points[0].AllocsPerOp
	for _, p := range t.Points {
		if p.AllocsPerOp < bestAllocs {
			bestAllocs = p.AllocsPerOp
		}
	}
	if tol.AllocFactor > 0 && bestAllocs > 0 &&
		float64(t.Latest().AllocsPerOp) > float64(bestAllocs)*tol.AllocFactor {
		if reason != "" {
			reason += ", "
		}
		reason += fmt.Sprintf("allocs x%.1f", float64(t.Latest().AllocsPerOp)/float64(bestAllocs))
	}
	return reason
}

// LoadSnapshots reads every BENCH_*.json in dir, ordered oldest-to-newest
// by the embedded date stamp (ties broken by filename, so same-day
// snapshots keep their _2/_3 suffix order).
func LoadSnapshots(dir string) ([]Snapshot, error) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	snaps := make([]Snapshot, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		s.File = filepath.Base(f)
		s.Series = snapshotSeries(s.File)
		snaps = append(snaps, s)
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Date < snaps[j].Date })
	return snaps, nil
}

// snapshotSeries extracts the series tag from a snapshot filename:
// "" for BENCH_<date>.json, "scale1" for BENCH_scale1_<date>.json (and
// likewise for any other tag that is not a leading-digit date stamp).
func snapshotSeries(base string) string {
	name := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json")
	if i := strings.IndexByte(name, '_'); i > 0 {
		name = name[:i]
	}
	if name == "" || name[0] >= '0' && name[0] <= '9' {
		return ""
	}
	return name
}

// Analyze builds one Trend per (series, benchmark) pair that appears in
// any snapshot (restricted by match when non-nil), sorted by name. Tagged
// series (BENCH_scale1_*) prefix their trend names with "series/", so the
// drift comparison never mixes points across series.
func Analyze(snaps []Snapshot, match *regexp.Regexp) []Trend {
	series := map[string][]Point{}
	for _, s := range snaps {
		for _, p := range s.Benchmarks {
			if match != nil && !match.MatchString(p.Name) {
				continue
			}
			key := p.Name
			if s.Series != "" {
				key = s.Series + "/" + p.Name
			}
			series[key] = append(series[key], p)
		}
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	trends := make([]Trend, 0, len(names))
	for _, n := range names {
		pts := series[n]
		tr := Trend{Name: n, Points: pts, BestNs: pts[0].NsPerOp, WorstNs: pts[0].NsPerOp}
		for _, p := range pts {
			if p.NsPerOp < tr.BestNs {
				tr.BestNs = p.NsPerOp
			}
			if p.NsPerOp > tr.WorstNs {
				tr.WorstNs = p.NsPerOp
			}
		}
		trends = append(trends, tr)
	}
	return trends
}
