package srcgen

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/core/source"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// ReadSourceFile loads a dSrcG file.
func ReadSourceFile(fsys *pfs.FS, path string) ([]source.SampledSource, error) {
	sz := fsys.Size(path)
	if sz < 4 {
		return nil, fmt.Errorf("srcgen: %s missing or empty", path)
	}
	raw := make([]byte, sz)
	if err := fsys.ReadAt(path, 0, raw); err != nil {
		return nil, err
	}
	vals := mpiio.GetFloat32s(raw)
	n := int(vals[0])
	p := 1
	out := make([]source.SampledSource, 0, n)
	for s := 0; s < n; s++ {
		if p+5 > len(vals) {
			return nil, fmt.Errorf("srcgen: truncated header at source %d", s)
		}
		src := source.SampledSource{
			GI: int(vals[p]), GJ: int(vals[p+1]), GK: int(vals[p+2]),
			Dt: float64(vals[p+4]),
		}
		nt := int(vals[p+3])
		p += 5
		if p+6*nt > len(vals) {
			return nil, fmt.Errorf("srcgen: truncated rates at source %d", s)
		}
		src.Rate = make([][6]float32, nt)
		for t := 0; t < nt; t++ {
			copy(src.Rate[t][:], vals[p:p+6])
			p += 6
		}
		out = append(out, src)
	}
	return out, nil
}

// Reassemble restores full histories from temporal segments (inverse of
// PartitionTemporal), for verification.
func Reassemble(segs []Segment) []source.SampledSource {
	type key [3]int
	order := []key{}
	acc := map[key]*source.SampledSource{}
	for _, seg := range segs {
		for i := range seg.Sources {
			s := &seg.Sources[i]
			k := key{s.GI, s.GJ, s.GK}
			a := acc[k]
			if a == nil {
				a = &source.SampledSource{GI: s.GI, GJ: s.GJ, GK: s.GK, Dt: s.Dt}
				acc[k] = a
				order = append(order, k)
			}
			// Segments arrive in loop order; pad any gap with zeros.
			for len(a.Rate) < seg.StartStep {
				a.Rate = append(a.Rate, [6]float32{})
			}
			a.Rate = append(a.Rate, s.Rate...)
		}
	}
	out := make([]source.SampledSource, 0, len(acc))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	return out
}

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

// refEncode is WriteSourceFile's encoding as first written — the values
// gathered into a []float32, then encoded by mpiio.PutFloat32s — kept as the
// oracle of its one-buffer encoder.
func refEncode(srcs []source.SampledSource) []byte {
	var buf []float32
	buf = append(buf, float32(len(srcs)))
	for i := range srcs {
		s := &srcs[i]
		buf = append(buf, float32(s.GI), float32(s.GJ), float32(s.GK),
			float32(len(s.Rate)), float32(s.Dt))
		for _, r := range s.Rate {
			buf = append(buf, r[0], r[1], r[2], r[3], r[4], r[5])
		}
	}
	return mpiio.PutFloat32s(buf)
}

// TestSourceFileMatchesFloatEncoding: the file WriteSourceFile stores is
// byte for byte refEncode's — on the demo rupture, on sources whose rates
// hold −0, a subnormal, ±Inf and a NaN, with and without samples, and on no
// sources — and reads back through ReadSourceFile to the same bits.
func TestSourceFileMatchesFloatEncoding(t *testing.T) {
	odd := []source.SampledSource{
		{GI: 3, GJ: 4, GK: 5, Dt: 0.013, Rate: [][6]float32{
			{float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), -2.5e7},
			{1, 2, 3, 4, 5, 6},
		}},
		{GI: 0, GJ: 1, GK: 2, Dt: 0.5},
	}
	for _, tc := range []struct {
		name string
		srcs []source.SampledSource
	}{{"demo", demoSources(t)}, {"specials", odd}, {"none", nil}} {
		fsys := pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
		st := WriteSourceFile(fsys, "in/source.bin", tc.srcs)
		want := refEncode(tc.srcs)
		got := make([]byte, fsys.Size("in/source.bin"))
		if err := fsys.ReadAt("in/source.bin", 0, got); err != nil || !bytes.Equal(got, want) || st.Bytes != len(want) {
			t.Fatalf("%s: file of %d bytes (priced %d) differs from the float encoding's %d (%v)", tc.name, len(got), st.Bytes, len(want), err)
		}
		back, err := ReadSourceFile(fsys, "in/source.bin")
		if err != nil || len(back) != len(tc.srcs) {
			t.Fatalf("%s: read back %d sources of %d (%v)", tc.name, len(back), len(tc.srcs), err)
		}
		for i := range back {
			a, b := &tc.srcs[i], &back[i]
			if a.GI != b.GI || a.GJ != b.GJ || a.GK != b.GK || b.Dt != float64(float32(a.Dt)) || len(a.Rate) != len(b.Rate) {
				t.Fatalf("%s: source %d header %+v, wrote %+v", tc.name, i, b, a)
			}
			for n := range a.Rate {
				for c := range a.Rate[n] {
					if math.Float32bits(a.Rate[n][c]) != math.Float32bits(b.Rate[n][c]) {
						t.Fatalf("%s: source %d sample %d component %d: %g, wrote %g", tc.name, i, n, c, b.Rate[n][c], a.Rate[n][c])
					}
				}
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
