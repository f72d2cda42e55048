package fd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/testkit"
)

func makeMedium(t testing.TB, q cvm.Querier, d grid.Dims, h float64) *medium.Medium {
	t.Helper()
	dc, err := decomp.New(d, mpi.NewCart(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return medium.FromCVM(q, dc, dc.SubFor(0), h)
}

func heteroQuerier() cvm.Querier {
	return cvm.HardRock()
}

func randomState(d grid.Dims, seed int64) *State {
	s := NewState(d)
	rng := rand.New(rand.NewSource(seed))
	for _, f := range s.Fields() {
		data := f.Data()
		for i := range data {
			data[i] = rng.Float32()*2 - 1
		}
	}
	return s
}

// frontState is randomState with the velocities at rest and the stresses
// falling by three decades per k-plane, from normal range to far below
// anything that survives a velocity update: the shape of the numerical
// precursor ahead of a wavefront. One update keeps its increment in the
// shallow planes and lands under the quiescence floor in the deep ones.
func frontState(d grid.Dims, seed int64) *State {
	s := randomState(d, seed)
	for _, f := range s.Velocities() {
		clear(f.Data())
	}
	g := grid.Ghost
	for _, f := range s.Stresses() {
		for k := -g; k < d.NZ+g; k++ {
			scale := float32(math.Pow(10, -3*float64(k+g)))
			for j := -g; j < d.NY+g; j++ {
				for i := -g; i < d.NX+g; i++ {
					f.Set(i, j, k, f.At(i, j, k)*scale)
				}
			}
		}
	}
	return s
}

// rowDims is the grid of the row-body tests: rows long enough for two
// 8-lane chunks and a tail, at either parity of their first cell.
var rowDims = grid.Dims{NX: 19, NY: 10, NZ: 14}

// rowBoxes are the full box, sub-boxes whose rows start and end at odd
// offsets (a window one cell off in either direction reads a neighbour's
// value, which the full box's symmetric frame can hide), and rows of every
// length around the 8-lane chunk — 1, 7, 8, 9, 15, 16 and 17 cells: the
// vector body alone, the Go tail alone and the two together — each starting
// at an even and at an odd I0.
func rowBoxes() []Box {
	boxes := []Box{
		FullBox(rowDims),
		{I0: 1, I1: 12, J0: 3, J1: 8, K0: 1, K1: 13},
		{I0: 3, I1: 8, J0: 1, J1: 9, K0: 5, K1: 6},
		{I0: 5, I1: 6, J0: 0, J1: 10, K0: 0, K1: 14}, // single i-column
	}
	for _, ni := range []int{1, 7, 8, 9, 15, 16, 17} {
		for _, i0 := range []int{2, 1} {
			boxes = append(boxes, Box{I0: i0, I1: i0 + ni, J0: 2, J1: 7, K0: 1, K1: 12})
		}
	}
	return boxes
}

// rowStates are a filled state and one crossing the quiescence floor.
var rowStates = []struct {
	name   string
	state  func() *State
	atRest bool // velocities start at zero, so the floor decides what is stored
}{
	{"filled", func() *State { return randomState(rowDims, 42) }, false},
	{"front", func() *State { return frontState(rowDims, 42) }, true},
}

// expectBits fails unless every value of got's fields holds want's bits.
func expectBits(t *testing.T, label string, got, want []*grid.Field3, names []string) {
	t.Helper()
	for fi, f := range got {
		w := want[fi].Data()
		for n, x := range f.Data() {
			if math.Float32bits(x) != math.Float32bits(w[n]) {
				t.Fatalf("%s: %s[%d] = %g (%#x), want %g (%#x)", label, names[fi], n, x, math.Float32bits(x), w[n], math.Float32bits(w[n]))
			}
		}
	}
}

// All kernel variants must produce the same update to within float32
// round-off (§IV.B: the optimizations are arithmetic restructurings), on a
// filled state and on one that crosses the quiescence floor. On the latter
// every variant must store exactly +0 where Precomp does not keep a value
// of at least 2^-100. The production pair rewrites every operand expression
// of the pointwise pair as a row window, so it is held to Precomp bit for
// bit over rowBoxes: the 8-lane body, the Go tail and tail-only rows.
func TestVariantsAgree(t *testing.T) {
	d := rowDims
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	floor := float32(math.Ldexp(1, -100))

	for _, tc := range rowStates {
		for _, box := range rowBoxes() {
			ref := tc.state()
			UpdateVelocity(ref, m, dt, box, Precomp, Blocking{})
			if tc.atRest && box == FullBox(d) {
				kept, zeroed := 0, 0
				for _, x := range ref.VX.Data() {
					if x != 0 {
						kept++
					} else {
						zeroed++
					}
				}
				if kept == 0 || zeroed == 0 {
					t.Fatalf("%s: state does not cross the floor: %d kept, %d zeroed", tc.name, kept, zeroed)
				}
			}
			refVel := ref.Clone()
			UpdateStress(ref, m, dt, box, Precomp, Blocking{})

			for _, v := range []Variant{Naive, Precomp, Blocked} {
				s := tc.state()
				UpdateVelocity(s, m, dt, box, v, DefaultBlocking)
				for fi, f := range s.Velocities() {
					want := refVel.Velocities()[fi].Data()
					for n, x := range f.Data() {
						if x != 0 && float32(math.Abs(float64(x))) < floor || x == 0 && math.Signbit(float64(x)) {
							t.Fatalf("%s %v %v: stored %s[%d] = %g, want +0 or |v| >= 2^-100", tc.name, v, box, FieldNames[fi], n, x)
						}
						if v != Naive && math.Float32bits(x) != math.Float32bits(want[n]) {
							t.Fatalf("%s %v %v: %s[%d] = %g, precomp %g", tc.name, v, box, FieldNames[fi], n, x, want[n])
						}
					}
				}
				UpdateStress(s, m, dt, box, v, DefaultBlocking)
				if v != Naive {
					// What lets the solver stand attenuation.FusedStress in for
					// either of these followed by Apply.
					for fi, f := range s.Stresses() {
						want := ref.Stresses()[fi].Data()
						for n, x := range f.Data() {
							if math.Float32bits(x) != math.Float32bits(want[n]) {
								t.Fatalf("%s %v %v: %s[%d] = %g, precomp %g", tc.name, v, box, FieldNames[3+fi], n, x, want[n])
							}
						}
					}
				}
				diff := s.L2Diff(ref)
				norm := math.Sqrt(testkit.SumSq(ref.VX) + 1)
				if diff/norm > 2e-6 {
					t.Errorf("%s %v: variant %v differs from precomp: rel %g", tc.name, box, v, diff/norm)
				}
			}
		}
	}
}

// TestGoRowBodyMatchesPrecomp holds the row sweeps with no cell in the
// 8-lane body — all a host without AVX2 runs — to Precomp bit for bit, on
// every host, over the boxes and states of TestVariantsAgree.
func TestGoRowBodyMatchesPrecomp(t *testing.T) {
	m := makeMedium(t, heteroQuerier(), rowDims, 200)
	dt := m.StableDt(0.5)
	for _, tc := range rowStates {
		for _, box := range rowBoxes() {
			label := fmt.Sprintf("%s %v", tc.name, box)
			ref, s := tc.state(), tc.state()
			velocityPrecomp(ref, m, dt, box)
			velocitySweep(s, m, dt, box, Taper{}, false)
			expectBits(t, label, s.Fields(), ref.Fields(), FieldNames)
			stressPrecomp(ref, m, dt, box)
			stressSweep(s, m, dt, box, Taper{}, false)
			expectBits(t, label, s.Fields(), ref.Fields(), FieldNames)
		}
	}
}

// With the stresses at rest a velocity update stores Quiesce of the old
// value, so a row of special values holds the vector body's floor to the
// scalar one: the unsigned compare on the shifted bits keeps |v| >= 2^-100
// of either sign and any magnitude, ±Inf and NaN, and stores +0 for -0,
// subnormals and anything else under the floor.
func TestVectorQuiesceMatchesScalar(t *testing.T) {
	t.Run("24", func(t *testing.T) { testVectorQuiesce(t, 24, 0) })
	for rot := 0; rot < 24; rot += 5 {
		t.Run(fmt.Sprintf("21/rot%d", rot), func(t *testing.T) { testVectorQuiesce(t, 21, rot) })
	}
}

// testVectorQuiesce runs the special values, rotated left by rot, through
// an nx-cell row: 24 cells are three full chunks; 21 put the last five in
// the masked tail, and the five rotations of 21 put each value there once.
func testVectorQuiesce(t *testing.T, nx, rot int) {
	d := grid.Dims{NX: nx, NY: 1, NZ: 1}
	m := makeMedium(t, heteroQuerier(), d, 200)
	floor := float32(math.Ldexp(1, -100))
	inf := float32(math.Inf(1))
	vals := []float32{
		0, float32(math.Copysign(0, -1)), floor, -floor, math.Nextafter32(floor, 0), -math.Nextafter32(floor, 0),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-38, 1.5, -2, 3e5,
		-7e20, math.MaxFloat32, -math.MaxFloat32, inf, -inf, float32(math.NaN()),
		math.Float32frombits(0xffc00001), 1, -1, 2, 1e30, -1e-30,
	}
	vals = append(vals[rot:], vals[:rot]...)[:nx]
	s := NewState(d)
	box := FullBox(d)
	for _, f := range s.Velocities() {
		for i, x := range vals {
			f.Set(i, 0, 0, x)
		}
	}
	velocitySweep(s, m, m.StableDt(0.5), box, Taper{}, Vector)
	for fi, f := range s.Velocities() {
		for i, x := range vals {
			if got, want := f.At(i, 0, 0), Quiesce(x); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("%s[%d]: %g (%#x) stored %g (%#x), want %g (%#x)", FieldNames[fi], i,
					x, math.Float32bits(x), got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
}

// A tile whose windows run past the padded arrays is a bug in the caller:
// the Go loop panics at the first row that leaves the array, and the walker
// path panics at its span checks before the walker stores anything.
func TestSweepRejectsTilesPastTheArray(t *testing.T) {
	m := makeMedium(t, heteroQuerier(), rowDims, 200)
	dt := m.StableDt(0.5)
	d := rowDims
	boxes := []Box{
		{I0: 0, I1: d.NX, J0: 0, J1: d.NY, K0: d.NZ - 2, K1: d.NZ + 1}, // a plane past the interior
		{I0: 1, I1: 9, J0: 0, J1: d.NY + 3, K0: d.NZ - 1, K1: d.NZ},    // rows past the padded plane
	}
	sweeps := []struct {
		name  string
		sweep func(*State, *medium.Medium, float64, Box, bool)
	}{{"velocity", func(s *State, m *medium.Medium, dt float64, b Box, vec bool) {
		velocitySweep(s, m, dt, b, Taper{}, vec)
	}}, {"stress", func(s *State, m *medium.Medium, dt float64, b Box, vec bool) {
		stressSweep(s, m, dt, b, Taper{}, vec)
	}}}
	for _, sw := range sweeps {
		for _, box := range boxes {
			for _, vec := range []bool{false, Vector} {
				s := randomState(d, 3)
				before := s.Clone()
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s sweep vec=%v over %v: no panic", sw.name, vec, box)
						}
					}()
					sw.sweep(s, m, dt, box, vec)
				}()
				if vec {
					expectBits(t, fmt.Sprintf("%s walker over %v", sw.name, box), s.Fields(), before.Fields(), FieldNames)
				}
			}
		}
	}
}

// walkerDims holds rows of up to 56 cells from an odd I0, and boxes whose
// last cell is the coefficient arrays' last value.
var walkerDims = grid.Dims{NX: 58, NY: 6, NZ: 7}

// walkerBoxes are tiles of 1×1, 1×3, 3×1 and 4×3 rows (j×k) of 1–17, 20, 28
// and 56 cells from odd and even starts on all three axes, and the tiles
// that end at the last value of the medium's coefficient arrays, dense on
// the subgrid's cells, their highest stencil windows (zz's +2 plane in the
// velocity sweep, u's and v's in the stress sweep) in the padded arrays'
// last plane.
func walkerBoxes() []Box {
	d := walkerDims
	var boxes []Box
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 28, 56}
	for _, n := range lengths {
		for _, o := range [][3]int{{1, 1, 1}, {2, 0, 2}} {
			for _, nt := range [][2]int{{1, 1}, {1, 3}, {3, 1}, {4, 3}} {
				boxes = append(boxes, Box{I0: o[0], I1: o[0] + n, J0: o[1], J1: o[1] + nt[0], K0: o[2], K1: o[2] + nt[1]})
			}
		}
	}
	for _, n := range []int{5, 12, 21} {
		boxes = append(boxes, Box{I0: d.NX - n, I1: d.NX, J0: d.NY - 3, J1: d.NY, K0: d.NZ - 3, K1: d.NZ})
	}
	return boxes
}

// walkerSpecials are the values a velocity update passes through Quiesce:
// ±0, a subnormal, values about the floor, ±Inf and NaN.
var walkerSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-39, float32(math.Ldexp(1, -100)),
	-math.Nextafter32(float32(math.Ldexp(1, -100)), 0), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), 1.5, -3e5,
}

// sentinel marks the cells a sweep must not store: any value it wrote
// there would have to reproduce this NaN's payload.
var sentinel = math.Float32frombits(0x7fa5a5a5)

// forOutside calls fn with the index of every value of f outside box.
func forOutside(f *grid.Field3, box Box, fn func(n int)) {
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

// fillOutside sets every value of fs outside box to sentinel.
func fillOutside(fs []*grid.Field3, box Box) {
	for _, f := range fs {
		forOutside(f, box, func(n int) { f.Data()[n] = sentinel })
	}
}

// TestTileWalkerMatchesGoBody holds the 8-lane walkers to the Go row loop —
// the body without AVX2 — bit for bit, over walkerBoxes: full chunks and
// masked tails alone and together, row, plane and tile steps, and the last
// value of the arrays. The fields a sweep writes hold a sentinel everywhere
// outside the tile, past I1 and in the stride gap, which must come back
// untouched. A state of walkerSpecials in the velocities at rest runs Quiesce
// in every lane of the masked tail, and the taper on the loads; one with
// walkerSpecials in the stresses and the velocities at rest runs them through
// the taper at the stores. Each walker is held untapered and under one of the
// other testTapers in turn.
func TestTileWalkerMatchesGoBody(t *testing.T) {
	if !Vector {
		t.Skip("no 8-lane walker on this host")
	}
	d := walkerDims
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	tapers := testTapers(d, 9)
	for _, tc := range walkerStates(d) {
		for bi, box := range walkerBoxes() {
			label := fmt.Sprintf("%s %v", tc.name, box)
			for _, tp := range []namedTaper{tapers[0], tapers[1+bi%3]} {
				if !tc.velocity {
					break
				}
				ref, s := tc.state(), tc.state()
				fillOutside(ref.Velocities(), box)
				fillOutside(s.Velocities(), box)
				velocitySweep(ref, m, dt, box, tp.tp, false)
				velocitySweep(s, m, dt, box, tp.tp, true)
				expectBits(t, "velocity "+tp.name+" "+label, s.Fields(), ref.Fields(), FieldNames)
				expectSentinels(t, "velocity "+tp.name+" "+label, s.Velocities(), box)
			}
			if !tc.stress {
				continue
			}
			for _, tp := range []namedTaper{tapers[0], tapers[1+bi%3]} {
				// Fresh states: the stencil reads velocities outside the tile.
				ref, s := tc.state(), tc.state()
				fillOutside(ref.Stresses(), box)
				fillOutside(s.Stresses(), box)
				stressSweep(ref, m, dt, box, tp.tp, false)
				stressSweep(s, m, dt, box, tp.tp, true)
				expectBits(t, "stress "+tp.name+" "+label, s.Fields(), ref.Fields(), FieldNames)
				expectSentinels(t, "stress "+tp.name+" "+label, s.Stresses(), box)
			}
		}
	}
}

// walkerStates are the states of the walker tests and the sweeps each runs
// on: a filled state and a front run both; walkerSpecials in the velocities
// at rest run the velocity sweep (the stress sweep's sums would meet NaNs of
// both signs), and walkerSpecials in the stresses with the velocities at
// rest run the stress sweep, whose update adds +0 to each special and hands
// it to the taper.
func walkerStates(d grid.Dims) []walkerState {
	fill := func(pick func(*State) []*grid.Field3) func() *State {
		return func() *State {
			s := NewState(d)
			for fi, f := range pick(s) {
				for n := range f.Data() {
					f.Data()[n] = walkerSpecials[(n+3*fi)%len(walkerSpecials)]
				}
			}
			return s
		}
	}
	return []walkerState{
		{"filled", func() *State { return randomState(d, 42) }, true, true},
		{"front", func() *State { return frontState(d, 42) }, true, true},
		{"specials", fill((*State).Velocities), true, false},
		{"stress specials", fill((*State).Stresses), false, true},
	}
}

type walkerState struct {
	name             string
	state            func() *State
	velocity, stress bool
}

// namedTaper is one of testTapers.
type namedTaper struct {
	name string
	tp   Taper
}

// testTapers are the tapers the sweeps are held under: none; random
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
	taper := func(edge int) Taper { return Taper{axis(d.NX, edge), axis(d.NY, edge), axis(d.NZ, edge)} }
	return []namedTaper{{"untapered", Taper{}}, {"random", taper(1 << 20)}, {"sponge", taper(3)}, {"ones", taper(0)}}
}

// damp is the sponge's pass over fields in b as boundary's row walker runs
// it in Go: each value times fx[i]·fyz, fyz = fy[j]·fz[k] formed once a row.
func damp(fields []*grid.Field3, b Box, tp Taper) {
	g := grid.Ghost
	for _, f := range fields {
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

// TestTaperGoBodyMatchesSpongePass holds the tapered Go body to the
// untapered one followed by the sponge's pass (damp), bit for bit, over
// rowBoxes and walkerBoxes: the test that sees the order of the taper's
// products and that the taper multiplies the updated stress. The walker
// answers to the Go body (TestTileWalkerMatchesGoBody).
func TestTaperGoBodyMatchesSpongePass(t *testing.T) {
	for _, d := range []grid.Dims{rowDims, walkerDims} {
		m := makeMedium(t, heteroQuerier(), d, 200)
		dt := m.StableDt(0.5)
		boxes := rowBoxes()
		if d == walkerDims {
			boxes = walkerBoxes()
		}
		for _, tc := range walkerStates(d) {
			if !tc.stress {
				continue
			}
			for _, tp := range testTapers(d, 3)[1:] {
				for _, box := range boxes {
					label := fmt.Sprintf("%s %s %v", tc.name, tp.name, box)
					ref, s := tc.state(), tc.state()
					stressSweep(ref, m, dt, box, Taper{}, false)
					damp(ref.Stresses(), box, tp.tp)
					stressSweep(s, m, dt, box, tp.tp, false)
					expectBits(t, label, s.Fields(), ref.Fields(), FieldNames)
				}
			}
		}
	}
}

// TestVelocityTaperGoBodyMatchesSpongePass holds the tapered velocity Go body
// to the sponge's pass over the three velocities (damp) followed by the
// untapered body, bit for bit, over rowBoxes and walkerBoxes: the test that
// sees the order of the taper's products and that the taper multiplies the
// velocity before the update adds to it. The walker answers to the Go body
// (TestTileWalkerMatchesGoBody).
func TestVelocityTaperGoBodyMatchesSpongePass(t *testing.T) {
	for _, d := range []grid.Dims{rowDims, walkerDims} {
		m := makeMedium(t, heteroQuerier(), d, 200)
		dt := m.StableDt(0.5)
		boxes := rowBoxes()
		if d == walkerDims {
			boxes = walkerBoxes()
		}
		for _, tc := range walkerStates(d) {
			if !tc.velocity {
				continue
			}
			for _, tp := range testTapers(d, 5)[1:] {
				for _, box := range boxes {
					label := fmt.Sprintf("%s %s %v", tc.name, tp.name, box)
					ref, s := tc.state(), tc.state()
					damp(ref.Velocities(), box, tp.tp)
					velocitySweep(ref, m, dt, box, Taper{}, false)
					velocitySweep(s, m, dt, box, tp.tp, false)
					expectBits(t, label, s.Fields(), ref.Fields(), FieldNames)
				}
			}
		}
	}
}

// expectSentinels fails unless every value of fs outside box holds sentinel.
func expectSentinels(t *testing.T, label string, fs []*grid.Field3, box Box) {
	t.Helper()
	for fi, f := range fs {
		forOutside(f, box, func(n int) {
			if x := f.Data()[n]; math.Float32bits(x) != math.Float32bits(sentinel) {
				t.Fatalf("%s: field %d value %d outside the tile = %#x", label, fi, n, math.Float32bits(x))
			}
		})
	}
}

func TestBlockedCoversBoxExactly(t *testing.T) {
	// Tile accounting: blocks must partition the box regardless of
	// divisibility.
	box := Box{0, 7, 0, 13, 0, 19}
	total := 0
	forEachBlock(box, Blocking{JBlock: 4, KBlock: 5}, func(b Box) {
		total += b.Cells()
	})
	if total != box.Cells() {
		t.Fatalf("blocks cover %d cells, want %d", total, box.Cells())
	}
}

func TestEmptyBoxIsNoop(t *testing.T) {
	d := grid.Dims{NX: 8, NY: 8, NZ: 8}
	m := makeMedium(t, heteroQuerier(), d, 200)
	s := randomState(d, 1)
	before := s.Clone()
	UpdateVelocity(s, m, 0.001, Box{3, 3, 0, 8, 0, 8}, Precomp, Blocking{})
	UpdateStress(s, m, 0.001, Box{0, 8, 5, 2, 0, 8}, Precomp, Blocking{})
	if s.L2Diff(before) != 0 {
		t.Fatal("empty box modified state")
	}
}

func TestRegionUpdateOnlyTouchesRegion(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 12, NZ: 12}
	m := makeMedium(t, heteroQuerier(), d, 200)
	s := randomState(d, 7)
	before := s.Clone()
	inner := Box{4, 8, 4, 8, 4, 8}
	UpdateVelocity(s, m, 1.0, inner, Precomp, Blocking{})
	// Cells outside the box must be untouched.
	for _, probe := range [][3]int{{0, 0, 0}, {3, 4, 4}, {8, 4, 4}, {11, 11, 11}} {
		i, j, k := probe[0], probe[1], probe[2]
		if s.VX.At(i, j, k) != before.VX.At(i, j, k) {
			t.Fatalf("vx modified outside region at %v", probe)
		}
	}
	// And at least one inside cell must change.
	if s.VX.At(5, 5, 5) == before.VX.At(5, 5, 5) {
		t.Fatal("vx not updated inside region")
	}
}

// TestSpatialOrder verifies the 4th-order accuracy of the stress update's
// spatial derivative: starting from zero stress and an analytic velocity
// field, one step gives sxx = dt*(lam+2mu)*dvx/dx + dt*lam*(dvy/dy+dvz/dz);
// with vx = sin(w*x), the error against the analytic derivative must fall
// ~16x when h halves.
func TestSpatialOrder(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	q := cvm.Homogeneous(mat)
	L := 1000.0 // wavelength, m
	w := 2 * math.Pi / L
	dt := 1e-6 // tiny: isolates the spatial operator

	errAt := func(nx int) float64 {
		h := L / float64(nx)
		d := grid.Dims{NX: nx, NY: 6, NZ: 6}
		m := makeMedium(t, q, d, h)
		s := NewState(d)
		// vx lives at (i+1/2): fill the whole padded array analytically.
		g := grid.Ghost
		for k := -g; k < d.NZ+g; k++ {
			for j := -g; j < d.NY+g; j++ {
				for i := -g; i < d.NX+g; i++ {
					x := (float64(i) + 0.5) * h
					s.VX.Set(i, j, k, float32(math.Sin(w*x)))
				}
			}
		}
		UpdateStress(s, m, dt, FullBox(d), Precomp, Blocking{})
		l2m := mat.Rho * mat.Vp * mat.Vp
		var maxErr float64
		for i := 2; i < nx-2; i++ {
			x := float64(i) * h
			want := dt * l2m * w * math.Cos(w*x)
			got := float64(s.XX.At(i, 3, 3))
			if e := math.Abs(got - want); e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}

	e1 := errAt(16)
	e2 := errAt(32)
	ratio := e1 / e2
	if ratio < 12 {
		t.Fatalf("spatial convergence ratio %g, want ~16 (4th order); e1=%g e2=%g", ratio, e1, e2)
	}
}

// exchangePeriodic refreshes all ghost cells of every component with
// periodic wrap-around, giving the clean von Neumann setting the interior
// scheme is analyzed in (production boundaries are handled by the boundary
// package and halo exchange).
func exchangePeriodic(s *State) {
	for _, f := range s.Fields() {
		for _, ax := range []grid.Axis{grid.X, grid.Y, grid.Z} {
			// The Ghost planes at each end fill the ghosts past the other end.
			n := [3]int{f.NX, f.NY, f.NZ}[ax]
			for _, p := range [2][2]int{{n - grid.Ghost, -grid.Ghost}, {0, n}} {
				b := [6]int{0, f.NX, 0, f.NY, 0, f.NZ}
				b[2*ax], b[2*ax+1] = p[0], p[0]+grid.Ghost
				buf := make([]float32, grid.RangeLen(b[0], b[1], b[2], b[3], b[4], b[5]))
				f.PackRange(b[0], b[1], b[2], b[3], b[4], b[5], buf)
				b[2*ax], b[2*ax+1] = p[1], p[1]+grid.Ghost
				f.UnpackRange(b[0], b[1], b[2], b[3], b[4], b[5], buf)
			}
		}
	}
}

// TestPlaneWavePropagation checks the full leapfrog scheme against the
// analytic d'Alembert solution for an S plane wave: vy = f(x - vs*t),
// sxy = -rho*vs*f, staggered by h/2 in space and dt/2 in time. Ghosts are
// refreshed periodically so the comparison is free of boundary effects.
func TestPlaneWavePropagation(t *testing.T) {
	mat := cvm.Material{Vp: 6000, Vs: 3000, Rho: 2500}
	q := cvm.Homogeneous(mat)
	nx := 120
	h := 50.0
	d := grid.Dims{NX: nx, NY: 6, NZ: 6}
	m := makeMedium(t, q, d, h)
	dt := m.StableDt(0.4)
	vs := mat.Vs
	sigma := 300.0 // gaussian width, m
	x0 := float64(nx) * h / 2
	f := func(x float64) float64 {
		dx := x - x0
		return math.Exp(-dx * dx / (2 * sigma * sigma))
	}

	s := NewState(d)
	g := grid.Ghost
	for k := -g; k < d.NZ+g; k++ {
		for j := -g; j < d.NY+g; j++ {
			for i := -g; i < d.NX+g; i++ {
				xv := float64(i) * h // vy at (i, j+1/2, k): x-position i*h
				s.VY.Set(i, j, k, float32(f(xv)))
				// sxy at (i+1/2, j+1/2, k), advanced to t = +dt/2.
				xs := (float64(i) + 0.5) * h
				s.XY.Set(i, j, k, float32(-mat.Rho*vs*f(xs-vs*dt/2)))
			}
		}
	}

	nsteps := 40
	box := FullBox(d)
	for n := 0; n < nsteps; n++ {
		exchangePeriodic(s)
		UpdateVelocity(s, m, dt, box, Precomp, Blocking{})
		exchangePeriodic(s)
		UpdateStress(s, m, dt, box, Precomp, Blocking{})
	}
	tFinal := float64(nsteps) * dt

	// Periodicized analytic solution (wrap tails are negligible but the
	// wave may cross the domain edge for larger nsteps).
	L := float64(nx) * h
	fp := func(x float64) float64 { return f(x) + f(x-L) + f(x+L) }
	var maxErr, maxAmp float64
	for i := 0; i < nx; i++ {
		x := float64(i) * h
		want := fp(x - vs*tFinal)
		got := float64(s.VY.At(i, 3, 3))
		if a := math.Abs(want); a > maxAmp {
			maxAmp = a
		}
		if e := math.Abs(got - want); e > maxErr {
			maxErr = e
		}
	}
	if maxAmp < 0.5 {
		t.Fatalf("test misconfigured: wave left the comparison window (maxAmp=%g)", maxAmp)
	}
	if maxErr/maxAmp > 0.02 {
		t.Fatalf("plane wave error %g (rel %g), want < 2%%", maxErr, maxErr/maxAmp)
	}
}

// TestStability runs a few hundred steps at a CFL within the limit and
// checks the field stays bounded (no exponential blow-up), then confirms
// the limit is real by checking growth above it.
func TestStability(t *testing.T) {
	d := grid.Dims{NX: 16, NY: 16, NZ: 16}
	mat := cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}
	m := makeMedium(t, cvm.Homogeneous(mat), d, 100)

	run := func(dt float64, steps int) float64 {
		s := NewState(d)
		// Smooth localized initial velocity pulse.
		for k := 4; k < 12; k++ {
			for j := 4; j < 12; j++ {
				for i := 4; i < 12; i++ {
					r2 := float64((i-8)*(i-8) + (j-8)*(j-8) + (k-8)*(k-8))
					s.VX.Set(i, j, k, float32(math.Exp(-r2/8)))
				}
			}
		}
		box := FullBox(d)
		for n := 0; n < steps; n++ {
			exchangePeriodic(s)
			UpdateVelocity(s, m, dt, box, Precomp, Blocking{})
			exchangePeriodic(s)
			UpdateStress(s, m, dt, box, Precomp, Blocking{})
		}
		// Judge stability on the velocity energy: initial |v| <= 1, so a
		// stable run stays O(1) while an unstable one grows exponentially
		// (SumSq propagates NaN/Inf, unlike a max of failed comparisons).
		return testkit.SumSq(s.VX) + testkit.SumSq(s.VY) + testkit.SumSq(s.VZ)
	}

	cells := float64(d.Cells())
	stable := run(m.StableDt(0.9), 300)
	if math.IsNaN(stable) || stable > 100*cells {
		t.Fatalf("stable run blew up: velocity energy=%g", stable)
	}
	unstable := run(m.StableDt(1.6), 300)
	if !(math.IsNaN(unstable) || math.IsInf(unstable, 0) || unstable > 1e10*cells) {
		t.Fatalf("super-CFL run did not blow up: velocity energy=%g (CFL bound suspect)", unstable)
	}
}

func TestBoxHelpers(t *testing.T) {
	b := Box{0, 4, 0, 5, 0, 6}
	if b.Cells() != 120 {
		t.Errorf("Cells = %d", b.Cells())
	}
	if b.Empty() {
		t.Error("non-empty box reported empty")
	}
	e := Box{2, 2, 0, 5, 0, 6}
	if !e.Empty() || e.Cells() != 0 {
		t.Error("empty box misreported")
	}
	s := b.Shrink(1, true, true, false, false, true, false)
	if s.I0 != 1 || s.I1 != 3 || s.J0 != 0 || s.K0 != 1 || s.K1 != 6 {
		t.Errorf("Shrink = %+v", s)
	}
	if FullBox(grid.Dims{NX: 2, NY: 3, NZ: 4}).Cells() != 24 {
		t.Error("FullBox wrong")
	}
	if b.String() == "" {
		t.Error("String empty")
	}
}

func TestVariantStrings(t *testing.T) {
	names := map[Variant]string{Default: "default", Naive: "naive", Precomp: "precomp", Blocked: "blocked"}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("String(%d) = %q", int(v), v.String())
		}
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant string empty")
	}
}

// fd.Fused survives as a name for the production row sweep only because
// bench/ compiles against it: it must select the same bits as Precomp.
func TestFusedExactVsPrecomp(t *testing.T) {
	d := grid.Dims{NX: 13, NY: 11, NZ: 9}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	boxes := []Box{
		FullBox(d),
		{I0: 1, I1: 12, J0: 2, J1: 9, K0: 3, K1: 8},
		{I0: 5, I1: 6, J0: 0, J1: 11, K0: 0, K1: 9}, // single i-column
	}
	for _, box := range boxes {
		ref := randomState(d, 17)
		UpdateVelocity(ref, m, dt, box, Precomp, Blocking{})
		UpdateStress(ref, m, dt, box, Precomp, Blocking{})
		s := randomState(d, 17)
		UpdateVelocity(s, m, dt, box, Fused, Blocking{})
		UpdateStress(s, m, dt, box, Fused, Blocking{})
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("box %v field %s idx %d: fused %g != precomp %g",
						box, FieldNames[fi], n, a[n], b[n])
				}
			}
		}
	}
}

// forEachBlock edge cases: extents not multiples of the block factors,
// single-plane boxes, and the Blocking{0,0} fallback to DefaultBlocking
// must all partition the box (each cell visited exactly once) and hence
// stay bit-identical to the unblocked kernel.
func TestForEachBlockEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		box  Box
		blk  Blocking
	}{
		{"non-multiple", Box{0, 9, 0, 13, 0, 19}, Blocking{JBlock: 4, KBlock: 5}},
		{"single-j-plane", Box{0, 9, 6, 7, 0, 19}, Blocking{JBlock: 8, KBlock: 16}},
		{"single-k-plane", Box{0, 9, 0, 13, 4, 5}, Blocking{JBlock: 8, KBlock: 16}},
		{"single-point", Box{3, 4, 5, 6, 7, 8}, Blocking{JBlock: 8, KBlock: 16}},
		{"zero-fallback", Box{0, 9, 0, 13, 0, 19}, Blocking{}},
		{"block-larger-than-box", Box{0, 5, 0, 3, 0, 2}, Blocking{JBlock: 64, KBlock: 64}},
	}
	for _, tc := range cases {
		visits := map[[2]int]int{}
		forEachBlock(tc.box, tc.blk, func(b Box) {
			if b.Empty() {
				t.Errorf("%s: emitted empty tile %v", tc.name, b)
			}
			if b.I0 != tc.box.I0 || b.I1 != tc.box.I1 {
				t.Errorf("%s: tile %v does not span full x extent", tc.name, b)
			}
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					visits[[2]int{j, k}]++
				}
			}
		})
		for k := tc.box.K0; k < tc.box.K1; k++ {
			for j := tc.box.J0; j < tc.box.J1; j++ {
				if visits[[2]int{j, k}] != 1 {
					t.Fatalf("%s: (j=%d,k=%d) visited %d times", tc.name, j, k, visits[[2]int{j, k}])
				}
			}
		}
	}
	// Blocking{0,0} must produce exactly DefaultBlocking's tiling.
	var got, want [][6]int
	box := Box{0, 9, 0, 13, 0, 19}
	forEachBlock(box, Blocking{}, func(b Box) {
		got = append(got, [6]int{b.I0, b.I1, b.J0, b.J1, b.K0, b.K1})
	})
	forEachBlock(box, DefaultBlocking, func(b Box) {
		want = append(want, [6]int{b.I0, b.I1, b.J0, b.J1, b.K0, b.K1})
	})
	if len(got) != len(want) {
		t.Fatalf("Blocking{} emitted %d tiles, DefaultBlocking %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tile %d: Blocking{} %v != DefaultBlocking %v", i, got[i], want[i])
		}
	}
	// And the blocked kernel must be bit-identical to the unblocked one for
	// every edge-case blocking above.
	d := grid.Dims{NX: 9, NY: 13, NZ: 19}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	ref := randomState(d, 23)
	UpdateVelocity(ref, m, dt, FullBox(d), Precomp, Blocking{})
	UpdateStress(ref, m, dt, FullBox(d), Precomp, Blocking{})
	for _, blk := range []Blocking{{JBlock: 4, KBlock: 5}, {}, {JBlock: 64, KBlock: 64}, {JBlock: 1, KBlock: 1}} {
		s := randomState(d, 23)
		UpdateVelocity(s, m, dt, FullBox(d), Blocked, blk)
		UpdateStress(s, m, dt, FullBox(d), Blocked, blk)
		for fi, f := range s.Fields() {
			a, b := f.Data(), ref.Fields()[fi].Data()
			for n := range a {
				if a[n] != b[n] {
					t.Fatalf("blk %+v field %s idx %d: %g != %g", blk, FieldNames[fi], n, a[n], b[n])
				}
			}
		}
	}
}

func TestStateCloneAndFields(t *testing.T) {
	s := NewState(grid.Dims{NX: 4, NY: 4, NZ: 4})
	if len(s.Fields()) != 9 || len(FieldNames) != 9 {
		t.Fatal("field count wrong")
	}
	if len(s.Velocities()) != 3 || len(s.Stresses()) != 6 {
		t.Fatal("component split wrong")
	}
	s.XX.Set(1, 1, 1, 5)
	c := s.Clone()
	c.XX.Set(1, 1, 1, 7)
	if s.XX.At(1, 1, 1) != 5 {
		t.Fatal("clone aliases original")
	}
}
