package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// TestHistogramCountsEveryTile pins that the occupancy histogram accounts
// for every non-empty micro tile: its buckets must sum to the non-empty
// count drtgen prints above them. cant at micro tile 256 has a tile with
// more than 8,192 non-zeros, past the buckets a fixed range would print.
func TestHistogramCountsEveryTile(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-matrix", "cant", "-microtile", "256")
	cmd.Env = append(os.Environ(), "DRT_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("drtgen: %v", err)
	}
	m := regexp.MustCompile(`(?m)^micro tiles \(256x256\): (\d+) of \d+ non-empty`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no non-empty count in:\n%s", out)
	}
	nonEmpty, _ := strconv.Atoi(string(m[1]))
	sum := 0
	for _, b := range regexp.MustCompile(`(?m)^  \[ *\d+\.\. *\d+\): (\d+) tiles$`).FindAllSubmatch(out, -1) {
		n, _ := strconv.Atoi(string(b[1]))
		sum += n
	}
	if nonEmpty == 0 || sum != nonEmpty {
		t.Fatalf("histogram counts %d tiles, drtgen reports %d non-empty:\n%s", sum, nonEmpty, out)
	}
}
