package checkpoint

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

// TestGhostFramedPMLCheckpointRejected: a checkpoint written while a zone's
// splits carried a ghost frame lists its pml.* sections at the padded length.
// Read into a rank whose splits hold only the zone's cells, it must fail as a
// section table mismatch and fill nothing, the wavefield included.
func TestGhostFramedPMLCheckpointRejected(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 8, NZ: 6}
	box := fd.Box{I0: 0, I1: 4, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}
	framedLen := (4 + 2*grid.Ghost) * (d.NY + 2*grid.Ghost) * (d.NZ + 2*grid.Ghost)
	old := fd.NewState(d).Sections()
	for _, sec := range boundary.NewPML(box, grid.X, grid.Low, 4, 0.1, 1e-5, 6000, 100).Sections() {
		if len(sec.F32) != box.Cells() {
			t.Fatalf("%s holds %d values, want the zone's %d cells", sec.Name, len(sec.F32), box.Cells())
		}
		old = append(old, grid.Section{Name: sec.Name, F32: make([]float32, framedLen)})
	}
	for si, sec := range old {
		for n := range sec.F32 {
			sec.F32[n] = float32(si*1000 + n)
		}
	}
	fsys := testFS()
	if _, err := Write(fsys, "ckpt", 0, 8, old); err != nil {
		t.Fatal(err)
	}

	s := fd.NewState(d)
	secs := append(s.Sections(), boundary.NewPML(box, grid.X, grid.Low, 4, 0.1, 1e-5, 6000, 100).Sections()...)
	for _, sec := range secs {
		for n := range sec.F32 {
			sec.F32[n] = -1
		}
	}
	if err := Read(fsys, "ckpt", 0, 8, secs); !errors.Is(err, ErrTable) {
		t.Fatalf("Read of a ghost-framed M-PML checkpoint: %v, want ErrTable", err)
	}
	for _, sec := range secs {
		for n, v := range sec.F32 {
			if v != -1 {
				t.Fatalf("%s[%d] = %g filled from a rejected checkpoint", sec.Name, n, v)
			}
		}
	}
}

// TestGhostFramedMemoryVariableCheckpointRejected: a checkpoint written
// while the memory variables carried a ghost frame lists zxx…zyz at the
// padded length. Read into a rank whose memory variables hold only its cells,
// it must fail as a section table mismatch that names zxx and both of its
// sizes, and fill nothing.
func TestGhostFramedMemoryVariableCheckpointRejected(t *testing.T) {
	d := grid.Dims{NX: 10, NY: 8, NZ: 6}
	m := makeMedium(t, d)
	framedLen := len(grid.NewField3G(d, grid.Ghost).Data())
	old := fd.NewState(d).Sections()
	for _, sec := range attenuation.New(m, attenuation.DefaultBand, 0.001).Sections() {
		if len(sec.F32) != d.Cells() {
			t.Fatalf("%s holds %d values, want the subgrid's %d cells", sec.Name, len(sec.F32), d.Cells())
		}
		old = append(old, grid.Section{Name: sec.Name, F32: make([]float32, framedLen)})
	}
	fsys := testFS()
	if _, err := Write(fsys, "ckpt", 0, 4, old); err != nil {
		t.Fatal(err)
	}
	s, a := fd.NewState(d), attenuation.New(m, attenuation.DefaultBand, 0.001)
	secs := append(s.Sections(), a.Sections()...)
	for _, sec := range secs {
		for n := range sec.F32 {
			sec.F32[n] = -1
		}
	}
	err := Load(fsys, "ckpt", 0, 4, s, a)
	if !errors.Is(err, ErrTable) {
		t.Fatalf("Load of a ghost-framed memory-variable checkpoint: %v, want ErrTable", err)
	}
	for _, want := range []string{`"zxx"`, fmt.Sprint(framedLen), fmt.Sprint(d.Cells())} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	for _, sec := range secs {
		for n, v := range sec.F32 {
			if v != -1 {
				t.Fatalf("%s[%d] = %g filled from a rejected checkpoint", sec.Name, n, v)
			}
		}
	}
}

// TestTableMismatchNamesTheSection: Read's error names the first section
// where the file's table and the rank's part — by name, value kind, count,
// an extra section or a missing one.
func TestTableMismatchNamesTheSection(t *testing.T) {
	secs := func(names ...string) []grid.Section {
		var out []grid.Section
		for _, n := range names {
			out = append(out, grid.Section{Name: n, F32: make([]float32, 3)})
		}
		return out
	}
	wide := append(secs("a"), grid.Section{Name: "b", F64: make([]float64, 3)})
	long := append(secs("a"), grid.Section{Name: "b", F32: make([]float32, 5)})
	for _, tc := range []struct {
		name       string
		file, rank []grid.Section
		want       string
	}{
		{"name", secs("a", "b"), secs("a", "c"), `section 1 is "b", the rank's is "c"`},
		{"kind", wide, secs("a", "b"), `section "b" holds 8-byte values, the rank's 4-byte`},
		{"count", long, secs("a", "b"), `section "b" holds 5 values, the rank's 3`},
		{"extra", secs("a", "b", "c"), secs("a", "b"), `3 sections, the rank's 2: "c" is not the rank's`},
		{"missing", secs("a"), secs("a", "b"), `1 sections, the rank's 2: "b" is missing`},
	} {
		fsys := testFS()
		if _, err := Write(fsys, "ckpt", 0, 1, tc.file); err != nil {
			t.Fatal(err)
		}
		err := Read(fsys, "ckpt", 0, 1, tc.rank)
		if !errors.Is(err, ErrTable) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ErrTable saying %s", tc.name, err, tc.want)
		}
	}
}

// l1Line returns which of the 64 cache lines of the 4 KiB period of the L1
// set index f's backing array starts on. unsafe is confined to this test: it
// reads an address, which the placement code itself never needs to.
func l1Line(t *testing.T, f []float32) int {
	t.Helper()
	addr := uintptr(unsafe.Pointer(&f[0]))
	if addr%64 != 0 {
		t.Fatalf("array starts %d bytes into a cache line", addr%64)
	}
	return int(addr % 4096 / 64)
}

// TestHotArraysSpreadOverL1Sets pins the placement rule of grid.LaneFields on
// the arrays a rank's sweeps stream together, in their two shapes: the
// padded group — the nine wavefield components, Rho and Mu — and the dense
// group — the eight medium coefficients and the eight attenuation arrays.
// Each group's arrays start on different cache lines modulo 4 KiB, so equal
// offsets of them fall in different L1 sets, and so do the 24 splits of a
// PML zone among themselves; the two groups' offsets of one cell differ by a
// row pitch that varies along the grid, so the test walks every cell and
// holds each L1 set to at most two of the 27 lines the cell's values lie on.
// A second build lands on the same lines (nothing depends on allocation
// order or a counter); State.Clone keeps them; and an owner's arrays lie
// within a page plus two cache lines a field of their total size — the
// whole cost of the placement. A checkpoint round trip then restores a
// placed state byte for byte, in place.
func TestHotArraysSpreadOverL1Sets(t *testing.T) {
	type build struct {
		s   *fd.State
		m   *medium.Medium
		a   *attenuation.Model
		pml *boundary.PML
	}
	const padded, dense, zone = 0, 1, 2
	// owners lists each owner's arrays in allocation order, fields the
	// fields of all but the zone, and group the shape each owner's arrays
	// have.
	group := []int{padded, padded, dense, dense, zone}
	fields := func(b build) [][]*grid.Field3 {
		m := b.m
		return [][]*grid.Field3{
			b.s.Fields(),
			{m.Rho, m.Mu},
			{m.Lam, m.BX, m.BY, m.BZ, m.MuXY, m.MuXZ, m.MuYZ, m.Lam2Mu},
			{b.a.ZXX, b.a.ZYY, b.a.ZZZ, b.a.ZXY, b.a.ZXZ, b.a.ZYZ, b.a.DLam, b.a.DMu},
		}
	}
	owners := func(b build) [][][]float32 {
		var out [][][]float32
		for _, fs := range fields(b) {
			var arrays [][]float32
			for _, f := range fs {
				arrays = append(arrays, f.Data())
			}
			out = append(out, arrays)
		}
		var splits [][]float32 // the three splits that take no term are not stored
		for _, sec := range b.pml.Sections() {
			splits = append(splits, sec.F32)
		}
		return append(out, splits)
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
		count := [3]int{}
		for oi, arrays := range own {
			count[group[oi]] += len(arrays)
		}
		if count != [3]int{11, 16, 24} {
			t.Fatalf("%v padded, dense and zone hot arrays, want 11, 16 and 24", count)
		}
		// Distinct lines within each group.
		seen := [3]map[int]bool{{}, {}, {}}
		for oi, arrays := range own {
			for fi, f := range arrays {
				line := l1Line(t, f)
				if seen[group[oi]][line] {
					t.Errorf("%s: owner %d array %d starts in an L1 set another array of its shape starts in", tag, oi, fi)
				}
				seen[group[oi]][line] = true
				if l1Line(t, again[oi][fi]) != line {
					t.Errorf("%s: owner %d array %d moved between two builds", tag, oi, fi)
				}
			}
			// Cost: first start to last end, against the arrays' own bytes.
			last := arrays[len(arrays)-1]
			span := uintptr(unsafe.Pointer(&last[len(last)-1])) + 4 - uintptr(unsafe.Pointer(&arrays[0][0]))
			lead := uintptr(l1Line(t, arrays[0])) * 64
			if over := lead + span - uintptr(len(arrays)*len(last)*4); over > uintptr(4096+128*len(arrays)) {
				t.Errorf("%s: owner %d spends %d bytes on placing %d arrays", tag, oi, over, len(arrays))
			}
		}
		// Every cell: the lines its 27 values lie on, at most two a set.
		var hot []*grid.Field3
		for _, fs := range fields(first) {
			hot = append(hot, fs...)
		}
		for k := 0; k < d.NZ; k++ {
			for j := 0; j < d.NY; j++ {
				for i := 0; i < d.NX; i++ {
					var sets [64]int
					for fi, f := range hot {
						set := (l1Line(t, f.Data()) + f.Idx(i, j, k)/16) % 64
						if sets[set]++; sets[set] > 2 {
							t.Fatalf("%s: cell (%d,%d,%d): array %d is the third line in L1 set %d", tag, i, j, k, fi, set)
						}
					}
				}
			}
		}
		for fi, f := range first.s.Clone().Fields() {
			if l1Line(t, f.Data()) != l1Line(t, own[0][fi]) {
				t.Errorf("%s: Clone moved %s", tag, fd.FieldNames[fi])
			}
		}

		// Save a filled state, load it into a second build: same bytes, and
		// the arrays stay where they were placed.
		saved := append(first.s.Fields(), fields(first)[3][:6]...) // the memory variables
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
		loaded := append(second.s.Fields(), fields(second)[3][:6]...)
		var before []int
		for _, f := range loaded {
			before = append(before, l1Line(t, f.Data()))
		}
		if err := Load(fsys, "ckpt", 0, 1, second.s, second.a); err != nil {
			t.Fatal(err)
		}
		for fi, f := range loaded {
			if l1Line(t, f.Data()) != before[fi] {
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
