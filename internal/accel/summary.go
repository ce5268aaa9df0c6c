package accel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"drt/internal/tensor"
)

// WorkloadSummary is everything a figure served from the trace store
// reads of a workload: the reference product's MACCs, the one-pass
// footprints of both inputs and of the output, and the no-reuse volume of
// B row fetches a row-wise CPU multiplication streams. Replayed engine
// runs read their schedules from the store, so with this summary at hand
// such a figure needs neither operands, nor grids, nor the reference pass.
type WorkloadSummary struct {
	MACCs      int64
	AFootprint int64 // InputFootprint's A component
	BFootprint int64 // InputFootprint's B component
	ZFootprint int64 // OutputFootprint
	StreamedB  int64 // StreamedBBytes
}

// Summary record format (.drtw): a fixed 56-byte little-endian record.
//
//	offset  size  field
//	     0     4  magic "DRTW"
//	     4     4  uint32 version (SummaryFormatVersion)
//	     8    40  MACCs, AFootprint, BFootprint, ZFootprint, StreamedB (int64)
//	    48     8  uint64 FNV-1a checksum of bytes [0, 48)
//
// The checksum makes a record edited or damaged in place undecodable, so
// it is purged as corrupt rather than trusted.
const (
	summaryMagic      = "DRTW"
	summaryRecordSize = 56
	summaryBodySize   = 48
)

// SummaryFormatVersion is the .drtw record generation. The trace store
// folds it into each record's key, so a bump makes every older record
// unreachable rather than misread.
const SummaryFormatVersion = 1

func (s WorkloadSummary) fields() [5]int64 {
	return [5]int64{s.MACCs, s.AFootprint, s.BFootprint, s.ZFootprint, s.StreamedB}
}

// MarshalBinary encodes the summary as one .drtw record.
func (s WorkloadSummary) MarshalBinary() ([]byte, error) {
	b := make([]byte, summaryRecordSize)
	copy(b[0:4], summaryMagic)
	binary.LittleEndian.PutUint32(b[4:8], SummaryFormatVersion)
	for i, v := range s.fields() {
		binary.LittleEndian.PutUint64(b[8+8*i:], uint64(v))
	}
	binary.LittleEndian.PutUint64(b[summaryBodySize:], summaryChecksum(b[:summaryBodySize]))
	return b, nil
}

// UnmarshalBinary decodes one .drtw record. It accepts exactly one
// well-formed record of the current version with a matching checksum and
// non-negative fields, and leaves s unchanged on error.
func (s *WorkloadSummary) UnmarshalBinary(b []byte) error {
	if len(b) != summaryRecordSize {
		return fmt.Errorf("accel: .drtw record is %d bytes, want %d", len(b), summaryRecordSize)
	}
	if string(b[0:4]) != summaryMagic {
		return fmt.Errorf("accel: bad .drtw magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != SummaryFormatVersion {
		return fmt.Errorf("accel: .drtw version %d, want %d", v, SummaryFormatVersion)
	}
	if got, want := binary.LittleEndian.Uint64(b[summaryBodySize:]), summaryChecksum(b[:summaryBodySize]); got != want {
		return fmt.Errorf("accel: .drtw checksum %#x, want %#x — corrupt", got, want)
	}
	var f [5]int64
	for i := range f {
		if f[i] = int64(binary.LittleEndian.Uint64(b[8+8*i:])); f[i] < 0 {
			return fmt.Errorf("accel: .drtw field %d is negative (%d) — corrupt", i, f[i])
		}
	}
	*s = WorkloadSummary{MACCs: f[0], AFootprint: f[1], BFootprint: f[2], ZFootprint: f[3], StreamedB: f[4]}
	return nil
}

func summaryChecksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// StreamedBBytes returns the no-reuse volume of B row fetches in row-wise
// SpMSpM: Σ_k nnz(A·,k)·rowBytes(B_k). It is the CPU baseline's streamed
// B traffic, the untiled software baseline's B traffic (Study 3) and
// MatRaptor's untiled B model.
func StreamedBBytes(a, b *tensor.CSR) int64 {
	colRefs := make([]int64, a.Cols)
	for _, k := range a.Idx {
		colRefs[k]++
	}
	var total int64
	for k := 0; k < b.Rows; k++ {
		if colRefs[k] == 0 {
			continue
		}
		rowNNZ := int64(b.Ptr[k+1] - b.Ptr[k])
		total += colRefs[k] * (rowNNZ*(tensor.MetaBytes+tensor.ValueBytes) + 2*tensor.MetaBytes)
	}
	return total
}
