package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/grid"
	"repro/internal/pfs"
)

// TestReadIndexedRetriesTransientFaults pins the read/write retry
// symmetry: a transient read fault with MaxConsecutive=1 (so the
// immediate retry is guaranteed to succeed) must be healed inside
// ReadIndexed, exactly as WriteIndexed heals transient write faults.
func TestReadIndexedRetriesTransientFaults(t *testing.T) {
	fsys := pfs.New(pfs.Jaguar())
	g := grid.Dims{NX: 8, NY: 4, NZ: 3}
	segs := BlockSegments(g, 1, 7, 0, 4, 0, 3, 4)
	data := make([]byte, TotalLen(segs))
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := WriteIndexed(fsys, "mesh", segs, data); err != nil {
		t.Fatal(err)
	}

	fsys.InjectFaults(pfs.FaultPlan{Seed: 21, ReadFailProb: 0.6, MaxConsecutive: 1})
	got, err := ReadIndexed(fsys, "mesh", segs)
	if err != nil {
		t.Fatalf("ReadIndexed did not survive transient read faults: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retried read returned wrong bytes")
	}
	if st := fsys.FaultStats(); st.FailedReads == 0 {
		t.Fatal("fault plan injected no read faults — test proves nothing")
	}
}

// TestReadIndexedGivesUpAfterBudget: with an unbounded consecutive-fault
// run the bounded retry loop must give up with a transient-classified
// error rather than hanging or succeeding.
func TestReadIndexedGivesUpAfterBudget(t *testing.T) {
	fsys := pfs.New(pfs.Jaguar())
	if err := fsys.WriteAt("mesh", 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	fsys.InjectFaults(pfs.FaultPlan{Seed: 2, ReadFailProb: 1, MaxConsecutive: 1 << 30})
	_, err := ReadIndexed(fsys, "mesh", []Segment{{Off: 0, Len: 64}})
	if err == nil {
		t.Fatal("read succeeded under permanent transient faults")
	}
	if !pfs.IsTransient(err) {
		t.Fatalf("giving-up error lost transient classification: %v", err)
	}
}

// TestWriteIndexedRetriesTransientFaults is the pre-existing write-side
// behavior, pinned here so the symmetry is tested in one place.
func TestWriteIndexedRetriesTransientFaults(t *testing.T) {
	fsys := pfs.New(pfs.Jaguar())
	fsys.InjectFaults(pfs.FaultPlan{Seed: 8, WriteFailProb: 0.6, MaxConsecutive: 1})
	segs := []Segment{{Off: 0, Len: 32}, {Off: 64, Len: 32}}
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := WriteIndexed(fsys, "out", segs, data); err != nil {
		t.Fatalf("WriteIndexed did not survive transient write faults: %v", err)
	}
	fsys.InjectFaults(pfs.FaultPlan{}) // disarm
	got, err := ReadIndexed(fsys, "out", segs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retried write landed wrong bytes")
	}
}
