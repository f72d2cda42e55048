package srcgen

import (
	"math"
	"testing"

	"repro/internal/core/source"
	"repro/internal/pfs"
)

func demoSources(t *testing.T) []source.SampledSource {
	t.Helper()
	spec := source.HaskellSpec{
		GJ: 8, I0: 2, I1: 22, K0: 1, K1: 9, HypoI: 10, HypoK: 5,
		H: 200, Mw: 6.5, Vr: 2800, RiseTime: 0.6, Mu: 3e10,
		Dt: 0.02, NT: 150, TaperCells: 2,
	}
	srcs, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

func TestSourceFileRoundTrip(t *testing.T) {
	fsys := pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
	srcs := demoSources(t)
	st := WriteSourceFile(fsys, "in/source.bin", srcs)
	if st.Bytes == 0 {
		t.Error("no bytes priced")
	}
	got, err := ReadSourceFile(fsys, "in/source.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(srcs) {
		t.Fatalf("count %d, want %d", len(got), len(srcs))
	}
	for i := range srcs {
		a, b := &srcs[i], &got[i]
		// Dt travels as float32 in the file, so compare with tolerance.
		if a.GI != b.GI || a.GJ != b.GJ || a.GK != b.GK ||
			math.Abs(a.Dt-b.Dt) > 1e-8 || len(a.Rate) != len(b.Rate) {
			t.Fatalf("source %d header mismatch: %+v vs %+v", i, a.GI, b.GI)
		}
		for n := range a.Rate {
			if a.Rate[n] != b.Rate[n] {
				t.Fatalf("source %d sample %d differs", i, n)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	fsys := pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
	if _, err := ReadSourceFile(fsys, "missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPartitionTemporalRoundTripAndMemory(t *testing.T) {
	srcs := demoSources(t)
	nLoops := 6
	segs, err := PartitionTemporal(srcs, nLoops)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != nLoops {
		t.Fatalf("segments %d, want %d", len(segs), nLoops)
	}
	// Windows tile [0, nt) exactly.
	for l := 1; l < len(segs); l++ {
		if segs[l].StartStep != segs[l-1].EndStep {
			t.Fatal("segments do not tile")
		}
	}
	// Reassembly identity.
	re := Reassemble(segs)
	if len(re) != len(srcs) {
		t.Fatalf("reassembled %d, want %d", len(re), len(srcs))
	}
	byKey := map[[3]int]*source.SampledSource{}
	for i := range re {
		byKey[[3]int{re[i].GI, re[i].GJ, re[i].GK}] = &re[i]
	}
	for i := range srcs {
		b := byKey[[3]int{srcs[i].GI, srcs[i].GJ, srcs[i].GK}]
		if b == nil {
			t.Fatal("source lost in reassembly")
		}
		if len(b.Rate) != len(srcs[i].Rate) {
			t.Fatalf("length %d, want %d", len(b.Rate), len(srcs[i].Rate))
		}
		for n := range b.Rate {
			if b.Rate[n] != srcs[i].Rate[n] {
				t.Fatalf("sample %d differs after reassembly", n)
			}
		}
	}
	// Memory high water ~ total/nLoops (within 2x for header overheads).
	total := MemoryBytes(srcs)
	hw := HighWater(segs)
	if float64(hw) > 2*float64(total)/float64(nLoops) {
		t.Fatalf("high water %d vs total %d / %d loops", hw, total, nLoops)
	}
}

func TestPartitionTemporalValidation(t *testing.T) {
	if _, err := PartitionTemporal(nil, 0); err == nil {
		t.Error("nLoops=0 accepted")
	}
	// More loops than samples: clamps, still correct.
	srcs := []source.SampledSource{{GI: 1, Dt: 0.1, Rate: make([][6]float32, 3)}}
	segs, err := PartitionTemporal(srcs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments %d, want clamped 3", len(segs))
	}
}

func TestMemoryBytesScalesWithSamples(t *testing.T) {
	a := []source.SampledSource{{Rate: make([][6]float32, 100)}}
	b := []source.SampledSource{{Rate: make([][6]float32, 200)}}
	ra, rb := MemoryBytes(a), MemoryBytes(b)
	if math.Abs(float64(rb)/float64(ra)-2) > 0.1 {
		t.Fatalf("memory not ~linear in samples: %d vs %d", ra, rb)
	}
}
