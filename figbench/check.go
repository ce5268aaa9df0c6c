package main

import (
	"embed"
	"fmt"
	"path"
	"strconv"
	"strings"
)

// goldenFS holds the default-seed (seed 0) table of every figure of every
// workload, rendered exactly as exp's Table.String does. Regenerate with
// `go test -run TestGoldens -update` in this directory.
//
//go:embed testdata/golden
var goldenFS embed.FS

func goldenPath(workload, fig string) string {
	return path.Join("testdata", "golden", workload, fig+".txt")
}

// loadGoldens returns the spec's golden tables in figure order.
func loadGoldens(s spec) ([]string, error) {
	out := make([]string, len(s.Figs))
	for i, fig := range s.Figs {
		b, err := goldenFS.ReadFile(goldenPath(s.Name, fig))
		if err != nil {
			return nil, fmt.Errorf("golden table: %w", err)
		}
		out[i] = string(b)
	}
	return out, nil
}

// checker counts ops (one per runner call) and judges their outputs.
type checker struct {
	spec   spec
	seed   int64
	golden []string // nil when the run's scale has no goldens (tests)
	first  []string // the run's first tables: later passes must repeat them

	attempted, failed int
	failures          []string
}

// fail charges ops failed operations (0 for a failure that is no op, such
// as a layer-pass self-check) and records why.
func (k *checker) fail(ops int, msg string) {
	k.attempted += ops
	k.failed += ops
	k.failures = append(k.failures, msg)
}

// checkCold judges a pass that ran the figures from scratch: at seed 0
// each table must equal its golden byte for byte; at any other seed it
// must keep the golden's rows and columns. Every pass of a run must
// produce the same tables.
func (k *checker) checkCold(res passResult) {
	if k.first == nil {
		k.first = res.Tables
	}
	for i, fig := range k.spec.Figs {
		k.attempted++
		switch {
		case i >= len(res.Tables) || res.Errors[i] != "":
			k.failed++
			k.failures = append(k.failures, fmt.Sprintf("%s: %s", fig, errAt(res.Errors, i)))
		case k.golden != nil && k.seed == 0 && res.Tables[i] != k.golden[i]:
			k.failed++
			k.failures = append(k.failures, fig+": table differs from its golden")
		case k.golden != nil && skeleton(res.Tables[i]) != skeleton(k.golden[i]):
			k.failed++
			k.failures = append(k.failures, fig+": table rows or columns differ from its golden")
		case res.Tables[i] != k.first[i]:
			k.failed++
			k.failures = append(k.failures, fig+": table differs between passes of one run")
		}
	}
}

// checkWarm judges a pass replayed from the store: each table must equal
// the recording pass's table byte for byte.
func (k *checker) checkWarm(res passResult, cold []string) {
	for i, fig := range k.spec.Figs {
		k.attempted++
		switch {
		case i >= len(res.Tables) || res.Errors[i] != "":
			k.failed++
			k.failures = append(k.failures, fmt.Sprintf("%s: %s", fig, errAt(res.Errors, i)))
		case res.Tables[i] != cold[i]:
			k.failed++
			k.failures = append(k.failures, fig+": warm table differs from the cold recording")
		}
	}
}

func errAt(errs []string, i int) string {
	if i < len(errs) && errs[i] != "" {
		return errs[i]
	}
	return "no table"
}

func (k *checker) result(m map[string]metric) output {
	if m == nil {
		m = map[string]metric{}
	}
	attempted := k.attempted
	if attempted == 0 {
		attempted = 1 // nothing ran at all, which counts as one failed op
		k.failed = max(k.failed, 1)
	}
	return output{
		Correct:   k.failed == 0 && len(k.failures) == 0,
		Attempted: attempted,
		Failed:    k.failed,
		Metrics:   m,
	}
}

// skeleton reduces a rendered table to its rows and columns: every
// numeric field becomes "#", a rule line (whose length follows the
// columns' widths) becomes "-", and runs of spaces collapse, so two seeds'
// tables compare equal exactly when they differ only in their values.
func skeleton(table string) string {
	var b strings.Builder
	for _, line := range strings.Split(table, "\n") {
		for i, f := range strings.Fields(line) {
			if i > 0 {
				b.WriteByte(' ')
			}
			if _, err := strconv.ParseFloat(f, 64); err == nil {
				f = "#"
			} else if strings.Trim(f, "-") == "" {
				f = "-"
			}
			b.WriteString(f)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
