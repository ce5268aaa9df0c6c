package accel

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"drt/internal/extractor"
	"drt/internal/sim"
)

// FuzzReadTrace feeds arbitrary bytes to the one .drtt decoder on each
// path a file image takes: the heap path, the aliased path over an
// 8-aligned copy where the host allows it, and OpenTrace through a temp
// file. None may panic, and whatever any accepts must re-encode with
// WriteBinary and decode back to an equal trace that retimes identically.
func FuzzReadTrace(f *testing.F) {
	for _, tr := range recordedFixturesOf(f, 48, 300) {
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(traceMagic))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeEachTrace(data, func(_ string, tr *Trace, err error) {
			if err == nil {
				checkReencodes(t, tr)
			}
		})
		path := filepath.Join(dir, "input.drtt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := OpenTrace(path)
		if err != nil {
			return
		}
		defer v.Close()
		checkReencodes(t, v.Trace())
	})
}

// checkReencodes writes an accepted trace back out, decodes it again and
// requires an equal trace with identical retimed results.
func checkReencodes(t *testing.T, tr *Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("accepted trace does not re-encode: %v", err)
	}
	got, err := decodeTrace(buf.Bytes(), false)
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("re-encoded trace differs:\n got %+v\nwant %+v", got, tr)
	}
	ro := RetimeOptions{Machine: sim.DefaultMachine(), Intersect: sim.Parallel, Extractor: extractor.ParallelExtractor}
	if a, b := Retime(tr, ro), Retime(got, ro); a != b {
		t.Fatalf("re-encoded trace retimes differently:\n %+v\n %+v", a, b)
	}
}

// FuzzSummaryRecord feeds arbitrary bytes to the .drtw decoder: it never
// panics, accepts only well-formed records with non-negative fields, and
// what it accepts re-encodes to the same bytes.
func FuzzSummaryRecord(f *testing.F) {
	rec, _ := WorkloadSummary{MACCs: 12345, AFootprint: 4096, BFootprint: 4096, ZFootprint: 9000, StreamedB: 70000}.MarshalBinary()
	f.Add(rec)
	zero, _ := WorkloadSummary{}.MarshalBinary()
	f.Add(zero)
	f.Add([]byte(summaryMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s WorkloadSummary
		if err := s.UnmarshalBinary(data); err != nil {
			if s != (WorkloadSummary{}) {
				t.Fatalf("rejected record left %+v behind", s)
			}
			return
		}
		for i, v := range s.fields() {
			if v < 0 {
				t.Fatalf("accepted field %d = %d", i, v)
			}
		}
		back, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", back, data)
		}
	})
}
