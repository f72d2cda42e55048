package attenuation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/testkit"
)

// mechAt returns the relaxation mechanism index for point (i,j,k), cycling
// through the 2x2x2 cell parity (the coarse-grained distribution).
func mechAt(i, j, k int) int {
	return ((k&1)<<2 | (j&1)<<1 | (i & 1)) % NRelax
}

// applyPointwise is the memory-variable pass as it was first written — one
// Idx, one mechAt, one closure and bounds-checked whole-array indexing per
// cell — kept as the oracle of the row sweeps in rows.go. Cell n of the
// padded wavefield is cell c of the dense memory variables and deficits.
func applyPointwise(a *Model, s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	if box.Empty() {
		return
	}
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dh := float32(dt / m.H) // strain increment scale
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	zxx, zyy, zzz := a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data()
	zxy, zxz, zyz := a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data()
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	dx, dy, dz := s.VX.Strides()
	amf, cmf := a.coef32()

	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			for i := box.I0; i < box.I1; i++ {
				n, c := s.VX.Idx(i, j, k), a.ZXX.Idx(i, j, k)
				mm := mechAt(i+a.Origin[0], j+a.Origin[1], k+a.Origin[2])
				am, cm := amf[mm], cmf[mm]

				// Strain increments over this step (dt * strain rate);
				// shear components are engineering strain, matching the
				// elastic constitutive update.
				exx := dh * (c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx]))
				eyy := dh * (c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy]))
				ezz := dh * (c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz]))
				exy := dh * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]) +
					c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				exz := dh * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]) +
					c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				eyz := dh * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]) +
					c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))

				dl2m := dlam[c] + 2*dmu[c]
				trace := dlam[c] * (exx + eyy + ezz)

				// zeta' = am*zeta + cm*deltaM*deps, constitutive-shaped;
				// the SLS stress is sigma = M_R*eps + zeta (the elastic
				// kernel supplies the relaxed part), so the correction adds
				// the memory-variable increment.
				upd := func(z *float32, drive float32, sig *float32) {
					zn := am*(*z) + cm*drive
					*sig += zn - *z
					*z = zn
				}
				upd(&zxx[c], dl2m*exx+trace-dlam[c]*exx, &xx[n])
				upd(&zyy[c], dl2m*eyy+trace-dlam[c]*eyy, &yy[n])
				upd(&zzz[c], dl2m*ezz+trace-dlam[c]*ezz, &zz[n])
				upd(&zxy[c], dmu[c]*exy, &xy[n])
				upd(&zxz[c], dmu[c]*exz, &xz[n])
				upd(&zyz[c], dmu[c]*eyz, &yz[n])
			}
		}
	}
}

// fillStateSeeded deterministically fills all nine wavefields (including
// ghosts) with heterogeneous values.
func fillStateSeeded(d grid.Dims, seed int64) *fd.State {
	s := fd.NewState(d)
	rng := rand.New(rand.NewSource(seed))
	for _, f := range s.Fields() {
		data := f.Data()
		for n := range data {
			data[n] = (rng.Float32() - 0.5) * 1e-2
		}
	}
	return s
}

// fillMemVarsSeeded fills the six memory variables of a, so that a step
// reads am as well as cm (from zero memory variables am*zeta is +0 whatever
// am is). The values span ±500, the scale of one step's drive
// cm·(δM·ε) on the test media and states (up to ≈ 600 there), so that
// am·zeta's own rounding moves the sum: memory variables a million times
// smaller than the drive hide a fused multiply-add in am*zeta + drive from
// every one-step test.
func fillMemVarsSeeded(a *Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, f := range []*grid.Field3{a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ} {
		data := f.Data()
		for n := range data {
			data[n] = (rng.Float32() - 0.5) * 1e3
		}
	}
}

// expectStatesEqual asserts exact (bitwise) equality of all nine wavefields.
func expectStatesEqual(t *testing.T, got, want *fd.State, label string) {
	t.Helper()
	wf := want.Fields()
	for fi, f := range got.Fields() {
		a, b := f.Data(), wf[fi].Data()
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: field %s idx %d: %g != %g", label, fd.FieldNames[fi], n, a[n], b[n])
			}
		}
	}
}

// expectMemVarsEqual asserts exact equality of all six memory variables.
func expectMemVarsEqual(t *testing.T, got, want *Model, label string) {
	t.Helper()
	gz := []*grid.Field3{got.ZXX, got.ZYY, got.ZZZ, got.ZXY, got.ZXZ, got.ZYZ}
	wz := []*grid.Field3{want.ZXX, want.ZYY, want.ZZZ, want.ZXY, want.ZXZ, want.ZYZ}
	names := []string{"ZXX", "ZYY", "ZZZ", "ZXY", "ZXZ", "ZYZ"}
	for zi := range gz {
		a, b := gz[zi].Data(), wz[zi].Data()
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("%s: memvar %s idx %d: %g != %g", label, names[zi], n, a[n], b[n])
			}
		}
	}
}

// TestApplyRowsMatchPointwise holds Apply's row sweep to the pointwise body
// bit for bit — stresses and memory variables, over several steps — on the
// full box, on sub-boxes at odd offsets and under coarse-graining origins of
// every parity.
func TestApplyRowsMatchPointwise(t *testing.T) {
	d := grid.Dims{NX: 13, NY: 10, NZ: 9}
	m := makeMedium(t, cvm.SoCal(1300, 1000, 900, 400), d, 100)
	dt := m.StableDt(0.5)
	boxes := []fd.Box{
		fd.FullBox(d),
		{I0: 3, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
		{I0: 2, I1: 3, J0: 5, J1: 6, K0: 3, K1: 4},  // single point
		{I0: 0, I1: 13, J0: 7, J1: 8, K0: 0, K1: 9}, // single j-plane
		{I0: 5, I1: 5, J0: 0, J1: 10, K0: 0, K1: 9}, // empty
	}
	for bi, box := range boxes {
		for _, origin := range [][3]int{{0, 0, 0}, {1, 0, 1}, {0, 1, 0}, {5, 9, 2}} {
			label := fmt.Sprintf("box %v origin %v", box, origin)
			sRef := fillStateSeeded(d, int64(300+bi))
			sRow := sRef.Clone()
			aRef := New(m, DefaultBand, dt)
			aRow := New(m, DefaultBand, dt)
			aRef.Origin, aRow.Origin = origin, origin
			for step := 0; step < 3; step++ {
				for _, s := range []*fd.State{sRef, sRow} {
					fd.UpdateVelocity(s, m, dt, fd.FullBox(d), fd.Precomp, fd.Blocking{})
					fd.UpdateStress(s, m, dt, box, fd.Precomp, fd.Blocking{})
				}
				applyPointwise(aRef, sRef, m, dt, box)
				aRow.Apply(sRow, m, dt, box)
				expectStatesEqual(t, sRow, sRef, label)
				expectMemVarsEqual(t, aRow, aRef, label)
			}
		}
	}
}

// FusedStress must be bit-identical to the two-pass UpdateStress + Apply
// over multiple steps, including with a nonzero coarse-graining origin (as
// a decomposed rank sees) and a heterogeneous Q model.
func TestFusedStressBitIdenticalMultiStep(t *testing.T) {
	d := grid.Dims{NX: 14, NY: 13, NZ: 11}
	m := makeMedium(t, cvm.SoCal(1400, 1300, 1100, 400), d, 100)
	dt := m.StableDt(0.5)
	box := fd.FullBox(d)

	sRef := fillStateSeeded(d, 7)
	sFus := sRef.Clone()
	aRef := New(m, DefaultBand, dt)
	aFus := New(m, DefaultBand, dt)
	aRef.Origin = [3]int{3, 5, 7}
	aFus.Origin = aRef.Origin

	for step := 0; step < 4; step++ {
		fd.UpdateVelocity(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
		fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
		aRef.Apply(sRef, m, dt, box)

		fd.UpdateVelocity(sFus, m, dt, box, fd.Blocked, fd.Blocking{})
		aFus.FusedStress(sFus, m, dt, box)
	}
	expectStatesEqual(t, sFus, sRef, "multi-step")
	expectMemVarsEqual(t, aFus, aRef, "multi-step")
}

// parityDims and parityBoxes are the grid and boxes of the sub-box parity
// tests: sub-boxes at odd offsets, and rows of 7, 8, 9, 16 and 17 cells —
// the vector body, the Go tail and both — from an even and an odd I0, so that
// under the even and odd x origins below both x parities of the mechanism
// table fall on the first lane of a vector chunk.
var parityDims = grid.Dims{NX: 20, NY: 10, NZ: 9}

var parityBoxes = []fd.Box{
	{I0: 3, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
	{I0: 2, I1: 3, J0: 5, J1: 6, K0: 3, K1: 4},  // single point
	{I0: 0, I1: 20, J0: 7, J1: 8, K0: 0, K1: 9}, // single j-plane
	{I0: 2, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
	{I0: 1, I1: 10, J0: 1, J1: 8, K0: 2, K1: 7},
	{I0: 2, I1: 11, J0: 3, J1: 6, K0: 0, K1: 9},
	{I0: 1, I1: 17, J0: 3, J1: 6, K0: 0, K1: 9},
	{I0: 2, I1: 19, J0: 0, J1: 10, K0: 4, K1: 6},
	{I0: 3, I1: 20, J0: 0, J1: 10, K0: 4, K1: 6},
}

var parityOrigins = [][3]int{{0, 0, 0}, {1, 0, 1}, {5, 9, 2}}

// Sub-boxes at odd offsets exercise the row parity tables — the Go body's
// two-entry table and the vector body's alternating lanes — against the
// per-point mechAt reference (applyPointwise).
func TestFusedStressSubBoxParity(t *testing.T) {
	testSubBoxParity(t, func(a *Model, s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
		a.FusedStress(s, m, dt, box)
	})
}

// TestFusedStressGoBodyMatchesTwoPass holds FusedStress with no cell in the
// 8-lane body — all a host without AVX2 runs — to the two-pass reference on
// every host.
func TestFusedStressGoBodyMatchesTwoPass(t *testing.T) {
	testSubBoxParity(t, func(a *Model, s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
		a.fusedStress(s, m, dt, box, fd.Taper{}, false)
	})
}

func testSubBoxParity(t *testing.T, fused func(*Model, *fd.State, *medium.Medium, float64, fd.Box)) {
	d := parityDims
	m := makeMedium(t, cvm.SoCal(2000, 1000, 900, 400), d, 100)
	dt := m.StableDt(0.5)
	for bi, box := range parityBoxes {
		for _, origin := range parityOrigins {
			label := fmt.Sprintf("box %v origin %v", box, origin)
			sRef := fillStateSeeded(d, int64(100+bi))
			sFus := sRef.Clone()
			aRef := New(m, DefaultBand, dt)
			aFus := New(m, DefaultBand, dt)
			aRef.Origin = origin
			aFus.Origin = origin
			fillMemVarsSeeded(aRef, int64(bi))
			fillMemVarsSeeded(aFus, int64(bi))

			fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
			applyPointwise(aRef, sRef, m, dt, box)
			fused(aFus, sFus, m, dt, box)

			expectStatesEqual(t, sFus, sRef, label)
			expectMemVarsEqual(t, aFus, aRef, label)
		}
	}
}

// walkerDims holds rows of up to 56 cells from an odd I0, and tiles whose
// highest windows (u's and v's +2 plane) end at the padded arrays' last
// value.
var walkerDims = grid.Dims{NX: 58, NY: 6, NZ: 7}

// walkerBoxes are tiles of 1×1, 1×3, 3×1 and 4×3 rows (j×k) of 1–17, 20,
// 28 and 56 cells from odd and even starts on all three axes — under
// parityOrigins, every row parity of the walker's coefficient table — and
// the tiles that end at the last value of the dense arrays (the medium's
// coefficients and the memory variables).
func walkerBoxes() []fd.Box {
	d := walkerDims
	var boxes []fd.Box
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 28, 56} {
		for _, o := range [][3]int{{1, 1, 1}, {2, 0, 2}} {
			for _, nt := range [][2]int{{1, 1}, {1, 3}, {3, 1}, {4, 3}} {
				boxes = append(boxes, fd.Box{I0: o[0], I1: o[0] + n, J0: o[1], J1: o[1] + nt[0], K0: o[2], K1: o[2] + nt[1]})
			}
		}
	}
	for _, n := range []int{5, 12, 21} {
		boxes = append(boxes, fd.Box{I0: d.NX - n, I1: d.NX, J0: d.NY - 3, J1: d.NY, K0: d.NZ - 3, K1: d.NZ})
	}
	return boxes
}

// sentinel marks the values the walker must not store.
var sentinel = math.Float32frombits(0x7fa5a5a5)

// TestFusedStressWalkerMatchesGoBody holds the 8-lane tile walker to the Go
// row loop bit for bit — stresses and memory variables — over walkerBoxes
// under every origin of parityOrigins, untapered and under one of the other
// testTapers in turn, from a filled state and from one of walkerSpecials in
// the stresses with the velocities and memory variables at rest, which
// hands every special to the taper. The
// stresses and memory variables hold a sentinel outside the tile, past I1
// and in the stride gap, which must come back untouched.
func TestFusedStressWalkerMatchesGoBody(t *testing.T) {
	if !fd.Vector {
		t.Skip("no 8-lane walker on this host")
	}
	d := walkerDims
	m := makeMedium(t, cvm.SoCal(5800, 600, 700, 400), d, 100)
	dt := m.StableDt(0.5)
	tapers := testTapers(d, 11)
	for bi, box := range walkerBoxes() {
		for oi, origin := range parityOrigins {
			for _, st := range walkerStates(d, int64(bi)) {
				for _, tp := range []namedTaper{tapers[0], tapers[1+(bi+oi)%3]} {
					label := fmt.Sprintf("%s %s box %v origin %v", st.name, tp.name, box, origin)
					sRef, aRef := st.state(m, dt)
					aRef.Origin = origin
					for _, f := range written(sRef, aRef) {
						forOutside(f, box, func(n int) { f.Data()[n] = sentinel })
					}
					sWalk := sRef.Clone()
					aWalk := New(m, DefaultBand, dt)
					aWalk.Origin = origin
					for zi, f := range memVars(aWalk) {
						f.CopyFrom(memVars(aRef)[zi])
					}

					aRef.fusedStress(sRef, m, dt, box, tp.tp, false)
					aWalk.fusedStress(sWalk, m, dt, box, tp.tp, true)
					expectBits(t, label, append(sWalk.Fields(), memVars(aWalk)...), append(sRef.Fields(), memVars(aRef)...))
					for _, f := range written(sWalk, aWalk) {
						forOutside(f, box, func(n int) {
							if x := f.Data()[n]; math.Float32bits(x) != math.Float32bits(sentinel) {
								t.Fatalf("%s: value %d outside the tile = %#x", label, n, math.Float32bits(x))
							}
						})
					}
				}
			}
		}
	}
}

// expectBits fails unless every value of got holds want's bits.
func expectBits(t *testing.T, label string, got, want []*grid.Field3) {
	t.Helper()
	for fi, f := range got {
		w := want[fi].Data()
		for n, x := range f.Data() {
			if math.Float32bits(x) != math.Float32bits(w[n]) {
				t.Fatalf("%s: field %d value %d = %#x, want %#x", label, fi, n, math.Float32bits(x), math.Float32bits(w[n]))
			}
		}
	}
}

// walkerState is a state and memory variables a walker test starts from.
type walkerState struct {
	name  string
	state func(m *medium.Medium, dt float64) (*fd.State, *Model)
}

// walkerStates are a filled state with filled memory variables, and
// walkerSpecials in the stresses with the velocities and memory variables
// at rest, so that a stress stores its special plus +0 twice, times the
// taper.
func walkerStates(d grid.Dims, seed int64) []walkerState {
	return []walkerState{
		{"filled", func(m *medium.Medium, dt float64) (*fd.State, *Model) {
			a := New(m, DefaultBand, dt)
			fillMemVarsSeeded(a, seed)
			return fillStateSeeded(d, seed), a
		}},
		{"specials", func(m *medium.Medium, dt float64) (*fd.State, *Model) {
			s := fd.NewState(d)
			for fi, f := range s.Stresses() {
				for n := range f.Data() {
					f.Data()[n] = walkerSpecials[(n+3*fi)%len(walkerSpecials)]
				}
			}
			return s, New(m, DefaultBand, dt)
		}},
	}
}

// walkerSpecials are ±0, subnormals, values about the quiescence floor, ±Inf
// and NaN.
var walkerSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-39, float32(math.Ldexp(1, -100)),
	-math.Nextafter32(float32(math.Ldexp(1, -100)), 0), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), 1.5, -3e5,
}

// namedTaper is one of testTapers.
type namedTaper struct {
	name string
	tp   fd.Taper
}

// testTapers are the tapers the fused sweep is held under: none; random
// factors in (0, 1]; a sponge's shape, factors in (0, 1] on the first and
// last three padded cells of each axis and exactly 1 between, so that whole
// rows, and the middles of rows, multiply by 1 exactly; and 1 everywhere.
func testTapers(d grid.Dims, seed int64) []namedTaper {
	rng := rand.New(rand.NewSource(seed))
	axis := func(n, edge int) []float32 {
		f := make([]float32, n+2*grid.Ghost)
		for i := range f {
			f[i] = 1
			if i < edge || i >= len(f)-edge {
				f[i] = 1 - rng.Float32()
			}
		}
		return f
	}
	taper := func(edge int) fd.Taper {
		return fd.Taper{X: axis(d.NX, edge), Y: axis(d.NY, edge), Z: axis(d.NZ, edge)}
	}
	return []namedTaper{{"untapered", fd.Taper{}}, {"random", taper(1 << 20)}, {"sponge", taper(3)}, {"ones", taper(0)}}
}

// dampAfter is the sponge's pass over the stresses in b as boundary's row
// walker runs it in Go: each value times fx[i]·fyz, fyz = fy[j]·fz[k] formed
// once a row.
func dampAfter(s *fd.State, b fd.Box, tp fd.Taper) {
	g := grid.Ghost
	for _, f := range s.Stresses() {
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				fyz := tp.Y[j+g] * tp.Z[k+g]
				for i := b.I0; i < b.I1; i++ {
					f.Set(i, j, k, f.At(i, j, k)*(tp.X[i+g]*fyz))
				}
			}
		}
	}
}

// TestFusedStressTaperGoBodyMatchesSpongePass holds the tapered Go body to
// the untapered one followed by the sponge's pass (dampAfter) bit for bit —
// stresses and memory variables — over parityBoxes and walkerBoxes: the test
// that sees the order of the taper's products, that it multiplies the
// stress after the memory variable's correction, and that it leaves the
// memory variables alone. The walker answers to the Go body
// (TestFusedStressWalkerMatchesGoBody).
func TestFusedStressTaperGoBodyMatchesSpongePass(t *testing.T) {
	for _, d := range []grid.Dims{parityDims, walkerDims} {
		m := makeMedium(t, cvm.SoCal(5800, 600, 700, 400), d, 100)
		dt := m.StableDt(0.5)
		boxes := parityBoxes
		if d == walkerDims {
			boxes = walkerBoxes()
		}
		for bi, box := range boxes {
			for _, st := range walkerStates(d, int64(bi)) {
				for _, tp := range testTapers(d, 5)[1:] {
					label := fmt.Sprintf("%s %s box %v", st.name, tp.name, box)
					sRef, aRef := st.state(m, dt)
					s, a := st.state(m, dt)
					aRef.Origin, a.Origin = parityOrigins[2], parityOrigins[2]
					aRef.fusedStress(sRef, m, dt, box, fd.Taper{}, false)
					dampAfter(sRef, box, tp.tp)
					a.fusedStress(s, m, dt, box, tp.tp, false)
					expectBits(t, label, append(s.Fields(), memVars(a)...), append(sRef.Fields(), memVars(aRef)...))
				}
			}
		}
	}
}

// memVars returns a's six memory variables.
func memVars(a *Model) []*grid.Field3 {
	return []*grid.Field3{a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ}
}

// written returns the fields FusedStress stores: the stresses of s and the
// memory variables of a.
func written(s *fd.State, a *Model) []*grid.Field3 {
	return append(s.Stresses(), memVars(a)...)
}

// forOutside calls fn with the index of every value of f outside box.
func forOutside(f *grid.Field3, box fd.Box, fn func(n int)) {
	g := testkit.Ghost(f)
	for k := -g; k < f.NZ+g; k++ {
		for j := -g; j < f.NY+g; j++ {
			for i := -g; i < f.NX+g; i++ {
				if i < box.I0 || i >= box.I1 || j < box.J0 || j >= box.J1 || k < box.K0 || k >= box.K1 {
					fn(f.Idx(i, j, k))
				}
			}
		}
	}
}

func TestFusedStressDtMismatchPanics(t *testing.T) {
	d := grid.Dims{NX: 4, NY: 4, NZ: 4}
	m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
	a := New(m, DefaultBand, 1e-3)
	s := fd.NewState(d)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.FusedStress(s, m, 2e-3, fd.FullBox(d))
}

// FuzzFusedStressMatchesTwoPass drives the fused kernel with random Q
// scatter (including Q<=0 points), random coarse-graining cell phase, random
// box offsets and filled memory variables, asserting exact equality against
// the two-pass reference on all wavefields and memory variables.
func FuzzFusedStressMatchesTwoPass(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint8(2), uint8(3), uint8(1), uint8(2))
	f.Add(int64(3), uint8(255), uint8(254), uint8(253), uint8(7), uint8(5), uint8(4))
	// Rows of 17, 16 and 9 cells with an odd x parity on the first lane (the
	// seeds above start their rows on an even one).
	f.Add(int64(4), uint8(0), uint8(2), uint8(1), uint8(3), uint8(0), uint8(2))
	f.Add(int64(5), uint8(1), uint8(0), uint8(0), uint8(4), uint8(2), uint8(1))
	f.Add(int64(6), uint8(2), uint8(3), uint8(2), uint8(11), uint8(4), uint8(3))
	d := grid.Dims{NX: 20, NY: 9, NZ: 8}

	f.Fuzz(func(t *testing.T, seed int64, ox, oy, oz, i0, j0, k0 uint8) {
		m := makeMedium(t, cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), d, 100)
		// Random per-point Q scatter, with ~1/8 of points lossless.
		rng := rand.New(rand.NewSource(seed))
		qsd := m.QS.Data()
		for n := range qsd {
			qs := rng.Float64() * 200
			if rng.Intn(8) == 0 {
				qs = 0
			}
			qsd[n] = float32(qs)
		}
		dt := m.StableDt(0.5)
		box := fd.Box{
			I0: int(i0) % d.NX, I1: d.NX,
			J0: int(j0) % d.NY, J1: d.NY,
			K0: int(k0) % d.NZ, K1: d.NZ,
		}
		origin := [3]int{int(ox), int(oy), int(oz)}

		sRef := fillStateSeeded(d, seed)
		sFus := sRef.Clone()
		aRef := New(m, DefaultBand, dt)
		aFus := New(m, DefaultBand, dt)
		aRef.Origin = origin
		aFus.Origin = origin
		fillMemVarsSeeded(aRef, seed)
		fillMemVarsSeeded(aFus, seed)

		fd.UpdateStress(sRef, m, dt, box, fd.Precomp, fd.Blocking{})
		applyPointwise(aRef, sRef, m, dt, box)
		aFus.FusedStress(sFus, m, dt, box)

		expectStatesEqual(t, sFus, sRef, "fuzz")
		expectMemVarsEqual(t, aFus, aRef, "fuzz")
	})
}
