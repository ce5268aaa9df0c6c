package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes the test
// binary with DRT_RUN_MAIN set, so the test sees its exit code and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("DRT_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestScaleBelowOneIsUsageError pins that a -scale or -microtile below 1
// exits 2 with one line on stderr naming the flag, before any other work:
// the unknown matrix passed alongside would otherwise fail first.
func TestScaleBelowOneIsUsageError(t *testing.T) {
	for _, bad := range []string{"-scale=0", "-scale=-2", "-microtile=0"} {
		cmd := exec.Command(os.Args[0], bad, "-matrix", "no-such-matrix")
		cmd.Env = append(os.Environ(), "DRT_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: %v, want exit status 2", bad, err)
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		want := "drtgen: " + strings.Replace(bad, "=", " ", 1) + ": must be at least 1"
		if msg != want {
			t.Errorf("%s: stderr %q, want the one line %q", bad, msg, want)
		}
	}
}
