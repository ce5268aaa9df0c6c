package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ExpResult is one experiment's table in a structured metrics dump: the
// formatted rows (human consumption, backward compatible) plus the raw
// kind-tagged cells and derived-row specs that make shard dumps mergeable.
type ExpResult struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	Headers []string     `json:"headers"`
	Rows    [][]string   `json:"rows"`
	Cells   [][]Cell     `json:"cells,omitempty"`
	Derived []DerivedRow `json:"derived,omitempty"`
	Seconds float64      `json:"seconds"`
}

// Result captures a finished table as an ExpResult.
func Result(id string, t *Table, seconds float64) ExpResult {
	return ExpResult{
		ID:      id,
		Title:   t.Title,
		Headers: append([]string(nil), t.Headers...),
		Rows:    t.Rows(),
		Cells:   t.DataCells(),
		Derived: t.DerivedRows(),
		Seconds: seconds,
	}
}

// check rejects a result that no table could have written: a data or
// derived row with more cells than headers, which rendering would index
// past its column widths, and a derived row with more geomean flags than
// cells, whose recomputation would index past its cells.
func (r ExpResult) check() error {
	for i, row := range r.Cells {
		if len(row) > len(r.Headers) {
			return fmt.Errorf("metrics: %s: row %d has %d cells for %d headers", r.ID, i, len(row), len(r.Headers))
		}
	}
	for i, d := range r.Derived {
		if len(d.Cells) > len(r.Headers) {
			return fmt.Errorf("metrics: %s: derived row %d has %d cells for %d headers", r.ID, i, len(d.Cells), len(r.Headers))
		}
		if len(d.Geo) > len(d.Cells) {
			return fmt.Errorf("metrics: %s: derived row %d has %d geomean flags for %d cells", r.ID, i, len(d.Geo), len(d.Cells))
		}
	}
	return nil
}

// Table rebuilds the table from the raw cells, recomputing derived rows.
// The formatted Rows of the rebuilt table are identical to the original's
// (cells round-trip exactly through their kind-tagged JSON).
func (r ExpResult) Table() *Table {
	t := NewTable(r.Title, r.Headers...)
	for _, row := range r.Cells {
		t.AddCellRow(row)
	}
	for _, d := range r.Derived {
		t.AddDerivedRow(d)
	}
	return t
}

// Dump is the full -metrics-out document: run metadata, the run's
// counters (workload builds, summary and trace store hits, ...) and one
// ExpResult per experiment.
type Dump struct {
	Meta        map[string]string `json:"meta,omitempty"`
	Counters    map[string]int64  `json:"counters,omitempty"`
	Experiments []ExpResult       `json:"experiments"`
}

// WriteJSON encodes the dump as indented JSON.
func (d Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// LoadDump reads one metrics dump file and rejects malformed tables.
func LoadDump(path string) (Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Dump{}, err
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return Dump{}, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range d.Experiments {
		if err := r.check(); err != nil {
			return Dump{}, fmt.Errorf("%s: %w", path, err)
		}
	}
	return d, nil
}

// MergeDumps recombines shard dumps (drtbench -shard k/n runs, in shard
// order) into the dump an unsharded run would have written: per
// experiment, the shards' data rows concatenate in shard order — block
// sharding preserves catalog order — and the derived (geomean) rows
// recompute over the union. Experiments missing from a shard (the
// non-shardable ones run on shard 0 only) pass through from the shards
// that ran them. Headers and titles must agree across shards; Seconds
// and the run counters sum (total work, not wall clock).
func MergeDumps(dumps []Dump) (Dump, error) {
	if len(dumps) == 0 {
		return Dump{}, fmt.Errorf("metrics: no dumps to merge")
	}
	type slot struct {
		table   *Table
		derived []DerivedRow
		res     ExpResult
		seconds float64
	}
	var order []string
	slots := map[string]*slot{}
	var counters map[string]int64
	for di, d := range dumps {
		for k, v := range d.Counters {
			if counters == nil {
				counters = map[string]int64{}
			}
			counters[k] += v
		}
		for _, r := range d.Experiments {
			if err := r.check(); err != nil {
				return Dump{}, err
			}
			s, ok := slots[r.ID]
			if !ok {
				if len(r.Cells) == 0 && len(r.Rows) > 0 {
					return Dump{}, fmt.Errorf("metrics: %s has no raw cells (dump written by an older drtbench?)", r.ID)
				}
				s = &slot{table: NewTable(r.Title, r.Headers...), res: r}
				slots[r.ID] = s
				order = append(order, r.ID)
			} else {
				if s.res.Title != r.Title || fmt.Sprint(s.res.Headers) != fmt.Sprint(r.Headers) {
					return Dump{}, fmt.Errorf("metrics: %s: shard %d table shape differs", r.ID, di)
				}
				if len(r.Derived) != len(s.res.Derived) {
					return Dump{}, fmt.Errorf("metrics: %s: shard %d derived rows differ", r.ID, di)
				}
			}
			for _, row := range r.Cells {
				s.table.AddCellRow(row)
			}
			s.derived = r.Derived
			s.seconds += r.Seconds
		}
	}
	out := Dump{Meta: dumps[0].Meta, Counters: counters}
	for _, id := range order {
		s := slots[id]
		for _, d := range s.derived {
			s.table.AddDerivedRow(d)
		}
		out.Experiments = append(out.Experiments, ExpResult{
			ID:      id,
			Title:   s.res.Title,
			Headers: s.res.Headers,
			Rows:    s.table.Rows(),
			Cells:   s.table.DataCells(),
			Derived: s.table.DerivedRows(),
			Seconds: s.seconds,
		})
	}
	return out, nil
}
