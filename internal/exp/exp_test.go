package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the table goldens under testdata/tables")

// tinyContext runs experiments on heavily scaled workloads so the whole
// evaluation smoke-tests quickly.
func tinyContext() *Context {
	return NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 4})
}

// TestAllExperimentsRun renders every experiment's table on the tiny
// context and diffs it against testdata/tables/<id>.golden, so any change
// to any table's bytes fails here. Regenerate with
// `go test ./internal/exp -run AllExperimentsRun -update`.
func TestAllExperimentsRun(t *testing.T) {
	c := tinyContext()
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			f, ok := c.Runner(id)
			if !ok {
				t.Fatalf("no runner for %s", id)
			}
			table, err := f()
			if err != nil {
				t.Fatal(err)
			}
			if table.NumRows() == 0 {
				t.Fatal("experiment produced no rows")
			}
			got := table.String()
			if !strings.Contains(got, table.Headers[0]) {
				t.Fatal("table failed to render")
			}
			golden := filepath.Join("testdata", "tables", id+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table diverged from %s.\n--- got ---\n%s--- want ---\n%s", id, golden, got, want)
			}
		})
	}
}

func TestRunnerUnknownID(t *testing.T) {
	c := tinyContext()
	if _, ok := c.Runner("fig99"); ok {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestFig6EntriesSpanGroups(t *testing.T) {
	c := NewContext(Options{Scale: 64, MicroTile: 8, MaxWorkloads: 4})
	entries := c.fig6Entries()
	if len(entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(entries))
	}
	groups := map[string]bool{}
	for _, e := range entries {
		groups[e.Pattern.String()] = true
	}
	if len(groups) != 2 {
		t.Fatalf("capped entry set must span both pattern groups, got %v", groups)
	}
}

func TestContextMemoizesWorkloads(t *testing.T) {
	c := tinyContext()
	e := c.fig6Entries()[0]
	w1, err := c.Square(e)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.Square(e)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatal("workload not memoized")
	}
}

func TestScaledMachineKeepsRatios(t *testing.T) {
	c := NewContext(Options{Scale: 16, MicroTile: 16})
	m := c.Machine()
	full := NewContext(Options{Scale: 1, MicroTile: 32}).Machine()
	if m.GlobalBuffer >= full.GlobalBuffer {
		t.Fatal("scaled buffer not smaller")
	}
	if m.DRAMBandwidth != full.DRAMBandwidth {
		t.Fatal("bandwidth should not scale")
	}
}
