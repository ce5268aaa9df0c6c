package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func withExitCapture(t *testing.T, f func()) (code int, called bool) {
	t.Helper()
	orig := exit
	defer func() { exit = orig }()
	exit = func(c int) { code, called = c, true; panic("exit") }
	defer func() { _ = recover() }()
	f()
	return code, called
}

func TestExitCodes(t *testing.T) {
	if code, ok := withExitCapture(t, func() { Fatalf("boom") }); !ok || code != ExitRuntime {
		t.Fatalf("Fatalf exit = %d (called=%v), want %d", code, ok, ExitRuntime)
	}
	if code, ok := withExitCapture(t, func() { Usagef("bad flag") }); !ok || code != ExitUsage {
		t.Fatalf("Usagef exit = %d (called=%v), want %d", code, ok, ExitUsage)
	}
}

func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale, microTile, want int
	}{{1, 1, 0}, {64, 8, 0}, {0, 8, ExitUsage}, {-3, 8, ExitUsage}, {16, 0, ExitUsage}, {16, -1, ExitUsage}} {
		code, _ := withExitCapture(t, func() { CheckScale("clitest", tc.scale, tc.microTile) })
		if code != tc.want {
			t.Errorf("CheckScale(%d, %d) exit = %d, want %d", tc.scale, tc.microTile, code, tc.want)
		}
	}
}

func TestAtExitRunsOnceOnFatal(t *testing.T) {
	runs := 0
	AtExit(func() { runs++ })
	withExitCapture(t, func() { Fatalf("x") })
	Cleanup() // second invocation must not re-run the cleanup
	if runs != 1 {
		t.Fatalf("cleanup ran %d times, want 1", runs)
	}
}

func TestProfilesStartStop(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	p := &Profiles{CPU: &cpu, Mem: &mem}
	stop := p.Start("clitest")
	stop()
	stop() // idempotent
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s missing: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}
