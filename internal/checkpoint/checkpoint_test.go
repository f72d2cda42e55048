package checkpoint

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-3, MDSConcurrent: 4})
}

func makeMedium(t testing.TB, d grid.Dims) *medium.Medium {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), dc, dc.SubFor(0), 100)
}

func step(s *fd.State, m *medium.Medium, a *attenuation.Model, dt float64) {
	box := fd.FullBox(s.Dims)
	fd.UpdateVelocity(s, m, dt, box, fd.Precomp, fd.Blocking{})
	fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
	if a != nil {
		a.Apply(s, m, dt, box)
	}
}

// The fundamental checkpoint property: save at step N, continue to 2N,
// then restore at N and re-run to 2N — the wavefields must be identical
// bit for bit.
func TestRestartBitIdentical(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 12, NZ: 12}
	m := makeMedium(t, d)
	dt := m.StableDt(0.5)
	a := attenuation.New(m, attenuation.DefaultBand, dt)
	fsys := testFS()

	s := fd.NewState(d)
	s.VX.Set(6, 6, 6, 1)
	for n := 0; n < 30; n++ {
		step(s, m, a, dt)
	}
	st, err := Save(fsys, "ckpt", 0, 30, s, a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes == 0 {
		t.Fatal("no checkpoint bytes")
	}
	for n := 0; n < 30; n++ {
		step(s, m, a, dt)
	}
	want := s.Clone()

	// Restore into fresh state and recompute.
	s2 := fd.NewState(d)
	a2 := attenuation.New(m, attenuation.DefaultBand, dt)
	if err := Load(fsys, "ckpt", 0, 30, s2, a2); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 30; n++ {
		step(s2, m, a2, dt)
	}
	if diff := s2.L2Diff(want); diff != 0 {
		t.Fatalf("restart differs from uninterrupted run: L2 %g", diff)
	}
}

func TestSaveWithoutAttenuation(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	fsys := testFS()
	s := fd.NewState(d)
	s.XY.Set(2, 2, 2, 5)
	if _, err := Save(fsys, "c", 3, 100, s, nil); err != nil {
		t.Fatal(err)
	}
	s2 := fd.NewState(d)
	if err := Load(fsys, "c", 3, 100, s2, nil); err != nil {
		t.Fatal(err)
	}
	if s2.XY.At(2, 2, 2) != 5 {
		t.Fatal("value lost")
	}
}

func TestLoadErrors(t *testing.T) {
	d := grid.Dims{NX: 6, NY: 6, NZ: 6}
	m := makeMedium(t, d)
	fsys := testFS()
	s := fd.NewState(d)
	a := attenuation.New(m, attenuation.DefaultBand, 0.001)

	if err := Load(fsys, "c", 0, 1, s, nil); err == nil {
		t.Error("missing checkpoint loaded")
	}
	if _, err := Save(fsys, "c", 0, 1, s, nil); err != nil {
		t.Fatal(err)
	}
	if err := Load(fsys, "c", 0, 2, s, nil); err == nil {
		t.Error("wrong step loaded")
	}
	if err := Load(fsys, "c", 0, 1, s, a); err == nil {
		t.Error("attenuation mismatch accepted")
	}
	s2 := fd.NewState(grid.Dims{NX: 4, NY: 4, NZ: 4})
	if err := Load(fsys, "c", 0, 1, s2, nil); err == nil {
		t.Error("dims mismatch accepted")
	}
}

// l1Line returns which of the 64 cache lines of the 4 KiB period of the L1
// set index f's backing array starts on. unsafe is confined to this test: it
// reads an address, which the placement code itself never needs to.
func l1Line(t *testing.T, f *grid.Field3) int {
	t.Helper()
	addr := uintptr(unsafe.Pointer(&f.Data()[0]))
	if addr%64 != 0 {
		t.Fatalf("array starts %d bytes into a cache line", addr%64)
	}
	return int(addr % 4096 / 64)
}

// TestHotArraysSpreadOverL1Sets pins the placement rule of grid.LaneFields on
// the arrays a rank's sweeps stream together — the nine wavefield components,
// the 12 medium arrays and the eight attenuation arrays: all 29 start on
// different cache lines modulo 4 KiB, so equal offsets of them fall in
// different L1 sets, and so do the 24 splits of a PML zone among themselves;
// a second build lands on the same lines (nothing depends on allocation order
// or a counter); State.Clone keeps them; and an owner's arrays lie within a page plus two cache lines a field of their
// total size — the whole cost of the placement. A checkpoint round trip then
// restores a placed state byte for byte, in place.
func TestHotArraysSpreadOverL1Sets(t *testing.T) {
	type build struct {
		s   *fd.State
		m   *medium.Medium
		a   *attenuation.Model
		pml *boundary.PML
	}
	// owners lists each owner's arrays in allocation order; the first three
	// owners are streamed together.
	owners := func(b build) [4][]*grid.Field3 {
		m := b.m
		var splits []*grid.Field3
		for _, sp := range b.pml.Splits() {
			for _, f := range sp.Fields() {
				if f != nil { // the three splits that take no term are not stored
					splits = append(splits, f)
				}
			}
		}
		return [4][]*grid.Field3{
			b.s.Fields(),
			{m.Rho, m.Lam, m.Mu, m.BX, m.BY, m.BZ, m.MuXY, m.MuXZ, m.MuYZ, m.Lam2Mu, m.QP, m.QS},
			{b.a.ZXX, b.a.ZYY, b.a.ZZZ, b.a.ZXY, b.a.ZXZ, b.a.ZYZ, b.a.DLam, b.a.DMu},
			splits,
		}
	}
	for _, d := range []grid.Dims{{NX: 56, NY: 56, NZ: 40}, {NX: 28, NY: 28, NZ: 20}} {
		tag := d.String()
		dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		mk := func() build {
			m := medium.FromCVM(cvm.HardRock(), dc, dc.SubFor(0), 100)
			return build{
				s: fd.NewState(d), m: m,
				a: attenuation.New(m, attenuation.DefaultBand, m.StableDt(0.5)),
				pml: boundary.NewPML(fd.Box{I0: 0, I1: 10, J0: 0, J1: d.NY, K0: 0, K1: d.NZ},
					grid.X, grid.Low, 10, 0.1, 1e-5, m.MaxVp, 100),
			}
		}
		first := mk()
		own, again := owners(first), owners(mk())
		if n := len(own[0]) + len(own[1]) + len(own[2]); n != 29 || len(own[3]) != 24 {
			t.Fatalf("%d + %d hot arrays, want 29 + 24", n, len(own[3]))
		}
		// Distinct lines: the 29 global arrays as one family, the splits as
		// another (a zone has its own shape, hence its own stride).
		global, zone := map[int]bool{}, map[int]bool{}
		for oi, fields := range own {
			seen := global
			if oi == 3 {
				seen = zone
			}
			for fi, f := range fields {
				line := l1Line(t, f)
				if seen[line] {
					t.Errorf("%s: owner %d array %d starts in an L1 set another hot array starts in", tag, oi, fi)
				}
				seen[line] = true
				if l1Line(t, again[oi][fi]) != line {
					t.Errorf("%s: owner %d array %d moved between two builds", tag, oi, fi)
				}
			}
			// Cost: first start to last end, against the arrays' own bytes.
			last := fields[len(fields)-1].Data()
			span := uintptr(unsafe.Pointer(&last[len(last)-1])) + 4 - uintptr(unsafe.Pointer(&fields[0].Data()[0]))
			lead := uintptr(l1Line(t, fields[0])) * 64
			if over := lead + span - uintptr(len(fields)*len(last)*4); over > uintptr(4096+128*len(fields)) {
				t.Errorf("%s: owner %d spends %d bytes on placing %d arrays", tag, oi, over, len(fields))
			}
		}
		for fi, f := range first.s.Clone().Fields() {
			if l1Line(t, f) != l1Line(t, own[0][fi]) {
				t.Errorf("%s: Clone moved %s", tag, fd.FieldNames[fi])
			}
		}

		// Save a filled state, load it into a second build: same bytes, and
		// the arrays stay where they were placed.
		saved := append(first.s.Fields(), own[2][:6]...) // the memory variables
		for fi, f := range saved {
			for n := range f.Data() {
				f.Data()[n] = float32(fi+1) * float32(n%97-48) * 1e-3
			}
		}
		fsys := testFS()
		if _, err := Save(fsys, "ckpt", 0, 1, first.s, first.a); err != nil {
			t.Fatal(err)
		}
		second := mk()
		loaded := append(second.s.Fields(), owners(second)[2][:6]...)
		var before []int
		for _, f := range loaded {
			before = append(before, l1Line(t, f))
		}
		if err := Load(fsys, "ckpt", 0, 1, second.s, second.a); err != nil {
			t.Fatal(err)
		}
		for fi, f := range loaded {
			if l1Line(t, f) != before[fi] {
				t.Errorf("%s: Load moved array %d", tag, fi)
			}
			want := saved[fi].Data()
			for n, x := range f.Data() {
				if math.Float32bits(x) != math.Float32bits(want[n]) {
					t.Fatalf("%s: array %d idx %d: loaded %g, saved %g", tag, fi, n, x, want[n])
				}
			}
		}
	}
}
