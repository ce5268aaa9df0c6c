// Package cli carries the conventions shared by the drt commands: uniform
// error handling (usage errors print to stderr and exit 2, runtime errors
// exit 1), the -cpuprofile/-memprofile pprof flags, the -listen runtime
// debug-server flag and the -log structured-logging flag every command
// exposes. Registered cleanups (e.g. an in-flight CPU profile) run before
// either exit path so diagnostics survive failed runs.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"drt/internal/obs"
)

// Exit codes shared by all commands.
const (
	ExitRuntime = 1 // the run itself failed
	ExitUsage   = 2 // the invocation was malformed (bad flag value, unknown name)
)

var (
	exit = os.Exit // swapped out by tests

	cleanupMu sync.Mutex
	cleanups  []func()
)

// AtExit registers f to run (last-registered first) before Fatalf or
// Usagef terminate the process, and when Cleanup is called on the normal
// path. Each registered function runs at most once.
func AtExit(f func()) {
	once := sync.Once{}
	cleanupMu.Lock()
	cleanups = append(cleanups, func() { once.Do(f) })
	cleanupMu.Unlock()
}

// Cleanup runs every registered cleanup; main functions should defer it.
func Cleanup() {
	cleanupMu.Lock()
	fs := make([]func(), len(cleanups))
	copy(fs, cleanups)
	cleanupMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// Fatalf reports a runtime error on stderr and exits with code 1.
// The command name prefix (e.g. "drtsim: ") belongs in format.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Cleanup()
	exit(ExitRuntime)
}

// Usagef reports a usage error on stderr and exits with code 2.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	Cleanup()
	exit(ExitUsage)
}

// CheckScale rejects a -scale or -microtile below 1 as a usage error.
// Commands call it right after parsing, before any other work: a
// scale-down factor below 1 would otherwise generate full-scale operands,
// and a zero micro tile divides by zero.
func CheckScale(cmd string, scale, microTile int) {
	if scale < 1 {
		Usagef("%s: -scale %d: must be at least 1", cmd, scale)
	}
	if microTile < 1 {
		Usagef("%s: -microtile %d: must be at least 1", cmd, microTile)
	}
}

// GroupUsage replaces the default flag.Usage with one that prints the
// named flags under a separate trailing section (e.g. "Performance
// knobs"), keeping knobs that only affect speed — never output — visually
// apart from the flags that select what is computed.
func GroupUsage(cmd, section string, names ...string) {
	grouped := map[string]bool{}
	for _, n := range names {
		grouped[n] = true
	}
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", cmd)
		flag.VisitAll(func(f *flag.Flag) {
			if !grouped[f.Name] {
				printFlag(out, f)
			}
		})
		fmt.Fprintf(out, "\n%s (output is byte-identical at any setting):\n", section)
		flag.VisitAll(func(f *flag.Flag) {
			if grouped[f.Name] {
				printFlag(out, f)
			}
		})
	}
}

// printFlag renders one flag in the standard library's usage format.
func printFlag(out io.Writer, f *flag.Flag) {
	name, usage := flag.UnquoteUsage(f)
	line := "  -" + f.Name
	if name != "" {
		line += " " + name
	}
	fmt.Fprintf(out, "%s\n    \t%s", line, usage)
	if f.DefValue != "" && f.DefValue != "false" {
		fmt.Fprintf(out, " (default %s)", f.DefValue)
	}
	fmt.Fprintln(out)
}

// AddListenFlag registers the -listen flag: an address the command binds
// its runtime debug server to (internal/obs/httpserve) for the duration
// of the run. Empty (the default) starts no server and constructs no
// telemetry machinery.
func AddListenFlag() *string {
	return flag.String("listen", "",
		"serve /metrics, /progress, /healthz and /debug/pprof/ on this address (e.g. :8080, :0) while running")
}

// AddLogFlag registers the -log flag selecting the structured (slog)
// stderr log level: off (default), info, or debug.
func AddLogFlag() *string {
	return flag.String("log", "off", "structured run log level on stderr: off | info | debug")
}

// Logger resolves an -log flag value to a slog logger on stderr ("off"
// yields a no-op logger, so call sites log unconditionally). Unknown
// levels are a usage error.
func Logger(level string) (*slog.Logger, error) {
	switch level {
	case "", "off":
		return obs.NopLogger(), nil
	case "info":
		return obs.NewRunLogger(os.Stderr, slog.LevelInfo), nil
	case "debug":
		return obs.NewRunLogger(os.Stderr, slog.LevelDebug), nil
	}
	return nil, fmt.Errorf("unknown -log level %q (off | info | debug)", level)
}

// Profiles holds the -cpuprofile/-memprofile flag values.
type Profiles struct {
	CPU, Mem *string
}

// AddProfileFlags registers the pprof flags on the default flag set.
func AddProfileFlags() *Profiles {
	return &Profiles{
		CPU: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		Mem: flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins profiling per the parsed flags and returns a stop function
// (also registered via AtExit, so profiles are written even when the
// command exits through Fatalf/Usagef). cmd prefixes error messages.
func (p *Profiles) Start(cmd string) func() {
	var cpuFile *os.File
	if *p.CPU != "" {
		f, err := os.Create(*p.CPU)
		if err != nil {
			Fatalf("%s: -cpuprofile: %v", cmd, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			Fatalf("%s: -cpuprofile: %v", cmd, err)
		}
		cpuFile = f
	}
	mem := *p.Mem
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", cmd, err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize up-to-date heap statistics
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", cmd, err)
				}
			}
		})
	}
	AtExit(stop)
	return stop
}
