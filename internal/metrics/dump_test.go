package metrics

import (
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
