package mpiio

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/pfs"
	"repro/internal/testkit"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
}

func TestBlockSegments(t *testing.T) {
	g := grid.Dims{NX: 8, NY: 4, NZ: 3}
	segs := BlockSegments(g, 2, 6, 1, 3, 0, 2, 4)
	// (3-1) rows x (2-0) planes = 4 segments of 4 cells x 4 bytes.
	if len(segs) != 4 {
		t.Fatalf("segments = %d", len(segs))
	}
	if segs[0].Off != ((0*4+1)*8+2)*4 || segs[0].Len != 16 {
		t.Fatalf("first segment %+v", segs[0])
	}
	if TotalLen(segs) != 64 {
		t.Fatalf("TotalLen = %d", TotalLen(segs))
	}
}

func TestBlockSegmentsPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockSegments(grid.Dims{NX: 4, NY: 4, NZ: 4}, 0, 5, 0, 1, 0, 1, 4)
}

func TestIndexedRoundTrip(t *testing.T) {
	fsys := testFS()
	g := grid.Dims{NX: 6, NY: 6, NZ: 4}
	// Fill a global record file with identifiable values.
	all := make([]float32, g.Cells())
	for i := range all {
		all[i] = float32(i)
	}
	fsys.WriteAt("f", 0, testkit.PutFloat32s(all))

	segs := BlockSegments(g, 1, 4, 2, 5, 1, 3, 4)
	raw, err := ReadIndexed(fsys, "f", segs)
	if err != nil {
		t.Fatal(err)
	}
	vals := testkit.GetFloat32s(raw)
	// First value should be global (k=1, j=2, i=1).
	want := float32((1*6+2)*6 + 1)
	if vals[0] != want {
		t.Fatalf("vals[0] = %g, want %g", vals[0], want)
	}
	// Write the block to a second file and read it back.
	if err := WriteIndexed(fsys, "g", segs, raw); err != nil {
		t.Fatal(err)
	}
	raw2, err := ReadIndexed(fsys, "g", segs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if raw[i] != raw2[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestWriteIndexedLengthCheck(t *testing.T) {
	fsys := testFS()
	segs := []Segment{{Off: 0, Len: 8}}
	if err := WriteIndexed(fsys, "f", segs, make([]byte, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestReadIndexedMissing(t *testing.T) {
	if _, err := ReadIndexed(testFS(), "none", []Segment{{0, 4}}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestPhaseOpsOpenAccounting(t *testing.T) {
	views := [][]Segment{
		{{0, 100}, {200, 100}},
		{{400, 100}},
	}
	ops := PhaseOps("f", views, true)
	if len(ops) != 3 {
		t.Fatalf("ops = %d", len(ops))
	}
	opens := 0
	for _, op := range ops {
		if op.Open {
			opens++
		}
		if !op.Write {
			t.Fatal("write flag lost")
		}
	}
	if opens != 2 {
		t.Fatalf("opens = %d, want one per rank", opens)
	}
}

// TestFloat32Codec: the record files' little-endian float32 codec, which
// the tests here write and read files with, round-trips every value.
func TestFloat32Codec(t *testing.T) {
	in := []float32{0, 1.5, -3.25e7, 1e-20}
	out := testkit.GetFloat32s(testkit.PutFloat32s(in))
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("codec mismatch at %d", i)
		}
	}
}
