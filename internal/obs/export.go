package obs

import (
	"encoding/json"
	"io"
	"math"
	"runtime/debug"
	"sort"
)

// Bucket is one power-of-two histogram bucket: Count samples had values in
// [Le/2, Le) (the first bucket covers values below 1).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistStat is the exported aggregate of one histogram.
type HistStat struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is the flat, machine-readable state of a collector: run
// metadata, counters and histogram aggregates. It marshals directly to the
// JSON schema documented in README.md ("Observability").
type Snapshot struct {
	Meta       map[string]string   `json:"meta,omitempty"`
	Counters   map[string]int64    `json:"counters,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
	Spans      int                 `json:"spans"`
	// OpenSpans counts wall-clock spans begun but not yet ended at
	// snapshot time. Nonzero in a post-run export means the run aborted or
	// hung inside those phases; OpenSpanNames lists them (oldest first,
	// capped) so the stuck phase is identifiable from the JSON alone.
	OpenSpans     int      `json:"open_spans,omitempty"`
	OpenSpanNames []string `json:"open_span_names,omitempty"`
	DroppedSpans  int64    `json:"dropped_spans,omitempty"`
}

// maxOpenSpanNames caps the open-span name list in a snapshot.
const maxOpenSpanNames = 32

// Snapshot returns a copy of the collector's aggregate state.
func (c *Collector) Snapshot() Snapshot {
	snap := Snapshot{}
	if c == nil {
		return snap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.meta) > 0 {
		snap.Meta = make(map[string]string, len(c.meta))
		for _, kv := range c.meta {
			snap.Meta[kv.k] = kv.v
		}
	}
	if len(c.counters) > 0 {
		snap.Counters = make(map[string]int64, len(c.counters))
		for k, v := range c.counters {
			snap.Counters[k] = v
		}
	}
	if len(c.hists) > 0 {
		snap.Histograms = make(map[string]HistStat, len(c.hists))
		for k, h := range c.hists {
			st := HistStat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			if h.count > 0 {
				st.Mean = h.sum / float64(h.count)
			}
			for i, n := range h.buckets {
				if n == 0 {
					continue
				}
				st.Buckets = append(st.Buckets, Bucket{Le: math.Ldexp(1, i), Count: n})
			}
			snap.Histograms[k] = st
		}
	}
	snap.Spans = len(c.spans)
	snap.OpenSpans = len(c.open)
	if len(c.open) > 0 {
		for _, s := range c.openOrdered() {
			if len(snap.OpenSpanNames) >= maxOpenSpanNames {
				break
			}
			snap.OpenSpanNames = append(snap.OpenSpanNames, s.cat+":"+s.name)
		}
	}
	snap.DroppedSpans = c.dropped
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// BuildMeta returns the binary's VCS identity (revision, commit time,
// dirty flag) and Go version from the build info the toolchain stamps into
// the binary — the "git describe" of the run metadata. Fields are absent
// when the binary was built outside a VCS checkout (e.g. go test).
func BuildMeta() map[string]string {
	out := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["go.version"] = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["vcs.revision"] = s.Value
		case "vcs.time":
			out["vcs.time"] = s.Value
		case "vcs.modified":
			out["vcs.modified"] = s.Value
		}
	}
	return out
}
