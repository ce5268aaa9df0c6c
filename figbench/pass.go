package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"drt/internal/exp"
	"drt/internal/obs"
)

// A pass is one fresh process that builds an exp.Context, prepares the
// seeded workloads and calls the figure runners, so no heap, memo or mmap
// carries from one measurement to the next. The parent starts each pass
// by re-executing its own binary with the request in passEnv.
const passEnv = "FIGBENCH_PASS"

// Pass modes.
const (
	modeCold   = "cold"   // timed phase: the runners, after the seeded prep
	modeRecord = "record" // set-up of a warm workload: prep + runners into the store
	modeWarm   = "warm"   // timed phase: prep + runners against a recorded store
)

type passRequest struct {
	Workload string
	Scale    int // overrides the spec's scale when > 0 (tests)
	Seed     int64
	Mode     string
	Store    string
	// Traced attaches an obs.Collector to exp.Options.Rec and, with
	// CPUProfile set, profiles the timed phase into that file.
	Traced     bool
	CPUProfile string
}

// span is one interval of a pass, relative to the pass's start. DurS, like
// every duration a pass reports, leaves out the time the hypervisor stole
// from the machine's CPUs meanwhile (see stolenSeconds).
type span struct {
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
}

type passResult struct {
	SetupS   float64          // seeded prep (cold) or the whole recording run (record)
	WallS    float64          // timed phase (0 for record passes)
	StealS   float64          // time stolen during the timed phase, left out of WallS
	CPUS     float64          // process user+system CPU over the timed phase
	MaxRSSKB int64            // process high-water RSS
	Tables   []string         // one per figure, in spec order ("" when it failed)
	Errors   []string         // one per figure, "" when the runner succeeded
	Counters map[string]int64 // exp's counters, when traced
	Spans    []span
}

// runPass executes one pass in this process.
func runPass(req passRequest) (passResult, error) {
	s, err := lookupSpec(req.Workload)
	if err != nil {
		return passResult{}, err
	}
	if req.Scale > 0 {
		s.Scale = req.Scale
	}
	opt := s.options(req.Store)
	var rec *obs.Collector
	if req.Traced {
		rec = obs.NewCollector()
		opt.Rec = rec
	}
	c := exp.NewContext(opt)
	entries := s.entries(req.Seed)
	origin := time.Now()
	var res passResult
	timed := func(name string, f func() error) (float64, error) {
		start, steal := time.Now(), stolenSeconds()
		err := f()
		d := time.Since(start).Seconds() - (stolenSeconds() - steal)
		res.Spans = append(res.Spans, span{Name: name, StartS: start.Sub(origin).Seconds(), DurS: d})
		return d, err
	}
	prep := func() error { return prepare(c, entries) }
	figs := func() error {
		for _, id := range s.Figs {
			var table string
			_, err := timed("runner "+id, func() (err error) { table, err = runFig(c, id); return err })
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			res.Tables = append(res.Tables, table)
			res.Errors = append(res.Errors, errText)
		}
		return nil
	}

	switch req.Mode {
	case modeCold:
		runtime.GC()
		if res.SetupS, err = timed("prep", prep); err != nil {
			return res, err
		}
		res.WallS, res.StealS, res.CPUS, err = measure(req.CPUProfile, func() error { _, err := timed("timed", figs); return err })
	case modeRecord:
		runtime.GC()
		res.SetupS, err = timed("record", func() error {
			if _, err := timed("prep", prep); err != nil {
				return err
			}
			return figs()
		})
	case modeWarm:
		res.WallS, res.StealS, res.CPUS, err = measure(req.CPUProfile, func() error {
			_, err := timed("timed", func() error {
				if _, err := timed("prep", prep); err != nil {
					return err
				}
				return figs()
			})
			return err
		})
	default:
		err = fmt.Errorf("unknown pass mode %q", req.Mode)
	}
	if err != nil {
		return res, err
	}
	if rec != nil {
		res.Counters = rec.Snapshot().Counters
	}
	res.MaxRSSKB = maxRSSKB()
	return res, nil
}

// measure runs the timed phase f after a GC, optionally under a CPU
// profile, and returns its wall time less the time stolen meanwhile, the
// stolen time, and the process CPU time it used.
func measure(profile string, f func() error) (wall, steal, cpu float64, err error) {
	runtime.GC()
	if profile != "" {
		pf, err := os.Create(profile)
		if err != nil {
			return 0, 0, 0, err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return 0, 0, 0, err
		}
		defer pprof.StopCPUProfile()
	}
	cpu0, steal0 := cpuSeconds(), stolenSeconds()
	start := time.Now()
	err = f()
	wall = time.Since(start).Seconds()
	steal = stolenSeconds() - steal0
	return wall - steal, steal, cpuSeconds() - cpu0, err
}

// userHZ is the unit of /proc/stat's counters (USER_HZ, 100 on Linux).
const userHZ = 100

// stolenSeconds is the time the hypervisor has so far kept this machine's
// CPUs from running while they had work: the steal column of /proc/stat's
// "cpu" line, 0 where the file or the column is missing. The process's own
// CPU time already leaves it out; wall times subtract it, because a shared
// host can steal a third of a pass for minutes at a time, which says
// nothing about the program. An idle CPU accrues no steal, so with one
// busy worker nearly all of it is that worker's.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSKB is this process's high-water RSS in KiB (Linux reports ru_maxrss
// in KiB).
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// passTimeout bounds one pass so a hung child cannot outlive the run's
// 180-second budget unnoticed.
const passTimeout = 170 * time.Second

// startPass runs req in a fresh child process and waits for it.
func startPass(req passRequest) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	blob, err := json.Marshal(req)
	if err != nil {
		return passResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(blob))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", req.Mode, err)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return passResult{}, fmt.Errorf("%s pass: decoding result: %w", req.Mode, err)
	}
	return res, nil
}

// childMain serves one pass request from the environment and reports
// whether this process was a child.
func childMain() bool {
	blob, ok := os.LookupEnv(passEnv)
	if !ok {
		return false
	}
	var req passRequest
	if err := json.Unmarshal([]byte(blob), &req); err != nil {
		fmt.Fprintf(os.Stderr, "figbench: pass request: %v\n", err)
		os.Exit(1)
	}
	res, err := runPass(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figbench: %s pass: %v\n", req.Mode, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "figbench: %v\n", err)
		os.Exit(1)
	}
	return true
}
