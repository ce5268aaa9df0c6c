package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// shardDump is one shard's dump: a one-row table and the given counters.
func shardDump(row string, counters map[string]int64) Dump {
	tb := NewTable("T", "name", "value")
	tb.AddRow(row, 1.5)
	return Dump{Counters: counters, Experiments: []ExpResult{Result("t", tb, 1)}}
}

func TestMergeDumpsSumsCounters(t *testing.T) {
	merged, err := MergeDumps([]Dump{
		shardDump("a", map[string]int64{"exp.workload.builds": 3, "trace_store.hits": 1}),
		shardDump("b", nil),
		shardDump("c", map[string]int64{"exp.workload.builds": 4, "summary_store.hits": 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"exp.workload.builds": 7, "trace_store.hits": 1, "summary_store.hits": 2}
	if !reflect.DeepEqual(merged.Counters, want) {
		t.Errorf("merged counters = %v, want %v", merged.Counters, want)
	}
	if got := merged.Experiments[0].Rows; len(got) != 3 {
		t.Errorf("merged %d rows, want 3", len(got))
	}
	merged, err = MergeDumps([]Dump{shardDump("a", nil), shardDump("b", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Counters != nil {
		t.Errorf("dumps without counters merged to %v", merged.Counters)
	}
}

// TestLoadDumpWithoutCounters pins that dumps written before the
// counters field existed still load.
func TestLoadDumpWithoutCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"meta": {"cmd": "drtbench"}, "experiments": [{"id": "t", "title": "T", "headers": ["name"], "rows": [["a"]], "seconds": 1}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Counters != nil || d.Meta["cmd"] != "drtbench" || len(d.Experiments) != 1 {
		t.Errorf("loaded %+v", d)
	}
}

// TestDumpRejectsExtraGeomeanFlags pins that a derived row flagging more
// geomean columns than it has cells is an error when loading and when
// merging, not an index panic in the recomputation.
func TestDumpRejectsExtraGeomeanFlags(t *testing.T) {
	const bad = `{"experiments": [{"id": "t", "title": "T", "headers": ["name"], "cells": [], "derived": [{"cells": [], "geo": [true]}]}]}`
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDump(path); err == nil {
		t.Error("LoadDump accepted a derived row with more geomean flags than cells")
	}
	var d Dump
	if err := json.Unmarshal([]byte(bad), &d); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeDumps([]Dump{shardDump("a", nil), d}); err == nil {
		t.Error("MergeDumps accepted a derived row with more geomean flags than cells")
	}
}

// TestDumpRejectsRowsWiderThanHeaders pins that a data or derived row
// with more cells than the table has headers is an error when loading
// and when merging, not an index panic when the table is rendered.
func TestDumpRejectsRowsWiderThanHeaders(t *testing.T) {
	for name, bad := range map[string]string{
		"data":    `{"experiments":[{"id":"x","headers":["a"],"cells":[[{"s":"x"},{"s":"y"}]]}]}`,
		"derived": `{"experiments":[{"id":"x","headers":["a"],"cells":[],"derived":[{"cells":[{"s":"x"},{}],"geo":[false,true]}]}]}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if d, err := LoadDump(path); err == nil {
			_ = d.Experiments[0].Table().String()
			t.Errorf("%s: LoadDump accepted a row wider than the headers", name)
		}
		var d Dump
		if err := json.Unmarshal([]byte(bad), &d); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeDumps([]Dump{d}); err == nil {
			t.Errorf("%s: MergeDumps accepted a row wider than the headers", name)
		}
	}
}

// FuzzLoadDump feeds arbitrary bytes through a file to LoadDump. Nothing
// may panic: not loading, not merging one or two copies of what loaded,
// and not rebuilding or rendering (String, CSV) any of their tables. A
// loaded dump re-encodes, and the re-encoding reloads to the same dump.
func FuzzLoadDump(f *testing.F) {
	tb := NewTable("T", "name", "x", "n")
	tb.AddRow("a", 1.5, 3)
	tb.AddRow("b", 2.0, int64(4))
	tb.AddGeomeanRow("geomean", GeomeanCol, "")
	var seed bytes.Buffer
	dump := Dump{
		Meta:        map[string]string{"cmd": "drtbench"},
		Counters:    map[string]int64{"exp.workload.builds": 2},
		Experiments: []ExpResult{Result("t", tb, 1.25)},
	}
	if err := dump.WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"experiments": [{"id": "t", "cells": [], "derived": [{"cells": [], "geo": [true]}]}]}`))
	f.Add([]byte(`{"meta": {"cmd": "drtbench"}, "experiments": [{"id": "t", "title": "T", "headers": ["name"], "rows": [["a"]], "seconds": 1}]}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "dump.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := LoadDump(path)
		if err != nil {
			return
		}
		render := func(r ExpResult) {
			tb := r.Table()
			_ = tb.String()
			_ = tb.CSV()
		}
		for _, r := range d.Experiments {
			render(r)
		}
		for _, dumps := range [][]Dump{{d}, {d, d}} {
			merged, err := MergeDumps(dumps)
			if err != nil {
				continue
			}
			for _, r := range merged.Experiments {
				render(r)
			}
		}
		var first bytes.Buffer
		if err := d.WriteJSON(&first); err != nil {
			t.Fatalf("loaded dump does not re-encode: %v", err)
		}
		if err := os.WriteFile(path, first.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadDump(path)
		if err != nil {
			t.Fatalf("re-encoded dump does not load: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("reloaded dump differs:\n%s\nwant\n%s", second.Bytes(), first.Bytes())
		}
	})
}
