package boundary

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/testkit"
)

// zoneSentinel marks the values a zone sweep must not store, and the
// coefficients it must not read: a stored value would have to reproduce
// this NaN's payload, and a lane that read one would store a NaN.
var zoneSentinel = math.Float32frombits(0x7fa5a5a5)

// zoneSpecials are the values a zone sweep must carry bit for bit through
// full and masked lanes: ±0, subnormals, values about the quiescence floor,
// ±Inf and NaN. The NaN is the one x86 makes of ∞−∞ and 0·∞, so every NaN
// in flight has one bit pattern: where two different NaNs meet in a sum,
// which one the sum keeps is its first operand's, which the Go compiler
// picks per register allocation and the walkers do not follow (DESIGN.md
// §9).
var zoneSpecials = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-39, float32(math.Ldexp(1, -100)),
	-math.Nextafter32(float32(math.Ldexp(1, -100)), 0), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0xffc00000), 1.5, -3e5,
}

// zoneValues are the states of the walker test, one value at a time:
// binades of ordinary arithmetic, binades about the quiescence floor and
// into the subnormals, zoneSpecials among ordinary values, and ±0 only —
// where a stress split is −0 and only a sum started at +0 stores +0.
var zoneValues = []struct {
	name string
	draw func(*rand.Rand) float32
}{
	{"random", func(r *rand.Rand) float32 { return randomValue(r, r.Intn(30)-15) }},
	{"front", func(r *rand.Rand) float32 { return randomValue(r, r.Intn(148)-140) }},
	{"specials", func(r *rand.Rand) float32 {
		if r.Intn(2) == 0 {
			return zoneSpecials[r.Intn(len(zoneSpecials))]
		}
		return randomValue(r, r.Intn(30)-15)
	}},
	{"zeros", func(r *rand.Rand) float32 { return float32(math.Copysign(0, float64(r.Intn(2)*2-1))) }},
}

// walkerZone is a zone of the walker test: its box and face, and the tiles
// swept in it.
type walkerZone struct {
	box   fd.Box
	axis  grid.Axis
	side  grid.Side
	width int
	tiles []fd.Box
}

// walkerZoneDims is the walker test's grid: rows of up to 36 cells from
// odd and even origins in every zone.
var walkerZoneDims = grid.Dims{NX: 38, NY: 6, NZ: 6}

// walkerZones are zones on all six faces — the x zones as thick as the grid,
// the y and z zones one plane thicker than their width, so the depth clamps
// inside every zone — each swept by tiles of 1×1, 1×3, 3×1 and 4×3 rows
// (j×k) of 1–17, 20 and 36 cells, from odd and even origins in turn; and on
// each axis a zone in the grid's last corner, whose tiles end at the last
// value of the medium's, split and coefficient arrays.
func walkerZones() []walkerZone {
	d := walkerZoneDims
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20, 36}
	shapes := [][2]int{{1, 1}, {1, 3}, {3, 1}, {4, 3}}
	tiles := func(z fd.Box) []fd.Box {
		var out []fd.Box
		for _, n := range lengths {
			for si, nt := range shapes {
				o := (n + si) % 2
				out = append(out, fd.Box{
					I0: z.I0 + 1 + o, I1: z.I0 + 1 + o + n,
					J0: z.J0 + o, J1: z.J0 + o + nt[0],
					K0: z.K0 + o, K1: z.K0 + o + nt[1],
				})
			}
		}
		return out
	}
	full := fd.FullBox(d)
	var zones []walkerZone
	for _, f := range []struct {
		axis grid.Axis
		side grid.Side
	}{{grid.X, grid.Low}, {grid.X, grid.High}, {grid.Y, grid.Low}, {grid.Y, grid.High}, {grid.Z, grid.Low}, {grid.Z, grid.High}} {
		box, width := full, 10
		if f.axis != grid.X {
			width = 4
			lo, hi := 0, 5
			if f.side == grid.High {
				lo, hi = 1, 6
			}
			if f.axis == grid.Y {
				box.J0, box.J1 = lo, hi
			} else {
				box.K0, box.K1 = lo, hi
			}
		}
		zones = append(zones, walkerZone{box: box, axis: f.axis, side: f.side, width: width, tiles: tiles(box)})
	}
	// In the grid's last corner, the zone ends where the tile's last row
	// ends: at the last value of the medium's arrays (they hold the
	// subgrid's cells), of the split arrays (the zone's cells) and of the
	// coefficient rows.
	corner := fd.Box{I0: d.NX - 22, I1: d.NX, J0: d.NY - 3, J1: d.NY, K0: d.NZ - 5, K1: d.NZ}
	for _, ax := range []grid.Axis{grid.X, grid.Y, grid.Z} {
		var ct []fd.Box
		for _, n := range []int{5, 12, 21} {
			ct = append(ct, fd.Box{I0: d.NX - n, I1: d.NX, J0: d.NY - 3, J1: d.NY, K0: d.NZ - 3, K1: d.NZ})
		}
		zones = append(zones, walkerZone{box: corner, axis: ax, side: grid.High, width: 3, tiles: ct})
	}
	return zones
}

// newWalkerZone builds z's PML with its coefficients for dt.
func newWalkerZone(z walkerZone, p, vpMax, h, dt float64) *PML {
	pm := NewPML(z.box, z.axis, z.side, z.width, p, DefaultPMLReflection, vpMax, h)
	pm.Prepare(dt)
	return pm
}

// zoneSweep is one of the two zone sweeps with the fields it reads (besides
// the medium) and writes.
type zoneSweep struct {
	name   string
	run    func(pm *PML, s *fd.State, m *medium.Medium, dt float64, b fd.Box, vec bool)
	reads  func(s *fd.State) []*grid.Field3
	writes func(s *fd.State) []*grid.Field3
}

var zoneSweeps = []zoneSweep{
	{"velocity", (*PML).velocitySweep, (*fd.State).Stresses, (*fd.State).Velocities},
	{"stress", (*PML).stressSweep, (*fd.State).Velocities, (*fd.State).Stresses},
}

// splitWrites returns the split fields sw writes, x split first.
func splitWrites(pm *PML, sw zoneSweep) []*grid.Field3 {
	var fs []*grid.Field3
	for _, sp := range pm.split {
		for _, f := range sw.writes(sp) {
			if f != nil {
				fs = append(fs, f)
			}
		}
	}
	return fs
}

// coefWindows returns a mask of the coefficient values tile b reads.
func coefWindows(pm *PML, b fd.Box) []bool {
	nx := pm.Zone.I1 - pm.Zone.I0
	read := make([]bool, len(pm.coef))
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for c := 0; c < 6; c++ {
				for i := b.I0; i < b.I1; i++ {
					read[pm.coefAt(j, k)+c*nx+i-pm.Zone.I0] = true
				}
			}
		}
	}
	return read
}

// TestPMLWalkerMatchesGoBody holds each zone walker to the Go row loop — the
// body without AVX2 — bit for bit, over walkerZones with p = 0 and the
// multi-axial ratio and over every zoneValues state: full chunks and masked
// tails alone and together, the three cursors' row and plane steps, and
// arrays that end where the tile does. Every field a sweep writes holds
// zoneSentinel outside the tile — past I1, in the stride gap, in the ghost
// frame — and so does every split, in the zone cells outside the tile; all
// must come back untouched, and every coefficient the tile does not read
// holds it too.
func TestPMLWalkerMatchesGoBody(t *testing.T) {
	if !fd.Vector {
		t.Skip("no 8-lane walker on this host")
	}
	d := walkerZoneDims
	h := 100.0
	m := makeMedium(t, cvm.SoCal(3800, 600, 600, 400), d, h)
	dt := m.StableDt(0.45)
	for zi, z := range walkerZones() {
		for _, p := range []float64{0, DefaultMPMLRatio} {
			for vi, vals := range zoneValues {
				for _, sw := range zoneSweeps {
					label := fmt.Sprintf("zone %d (%v%v) p %g %s %s", zi, z.axis, z.side, p, vals.name, sw.name)
					rng := rand.New(rand.NewSource(int64(1000*zi + 10*vi)))
					var pms [2]*PML
					var states [2]*fd.State
					for side := range pms {
						pms[side] = newWalkerZone(z, p, m.MaxVp, h, dt)
						states[side] = fd.NewState(d)
					}
					// The fields read get the same values on both sides; the
					// splits' values are drawn once and laid into each tile.
					for fi, f := range sw.reads(states[0]) {
						for n := range f.Data() {
							f.Data()[n] = vals.draw(rng)
						}
						copy(sw.reads(states[1])[fi].Data(), f.Data())
					}
					var splitVals [][]float32
					for _, f := range splitWrites(pms[0], sw) {
						v := make([]float32, len(f.Data()))
						for n := range v {
							v[n] = vals.draw(rng)
						}
						splitVals = append(splitVals, v)
					}
					for side := range pms {
						for _, f := range append(sw.writes(states[side]), splitWrites(pms[side], sw)...) {
							testkit.Fill(f, zoneSentinel)
						}
					}
					coef := slices.Clone(pms[0].coef)
					for _, b := range z.tiles {
						zo := pms[0].Zone
						local := fd.Box{I0: b.I0 - zo.I0, I1: b.I1 - zo.I0, J0: b.J0 - zo.J0, J1: b.J1 - zo.J0, K0: b.K0 - zo.K0, K1: b.K1 - zo.K0}
						read := coefWindows(pms[0], b)
						for side, pm := range pms {
							for si, f := range splitWrites(pm, sw) {
								setBox(f, local, splitVals[si])
							}
							for n := range pm.coef {
								if !read[n] {
									pm.coef[n] = zoneSentinel
								}
							}
							sw.run(pm, states[side], m, dt, b, side == 1)
						}
						tl := fmt.Sprintf("%s tile %v", label, b)
						expectZoneBits(t, tl, sw.writes(states[1]), sw.writes(states[0]), b)
						expectZoneBits(t, tl+" split", splitWrites(pms[1], sw), splitWrites(pms[0], sw), local)
						for side, pm := range pms {
							for n := range pm.coef {
								if !read[n] && math.Float32bits(pm.coef[n]) != math.Float32bits(zoneSentinel) {
									t.Fatalf("%s: coefficient %d written", tl, n)
								}
							}
							copy(pm.coef, coef)
							for _, f := range sw.writes(states[side]) {
								setBox(f, b, nil)
							}
							for _, f := range splitWrites(pm, sw) {
								setBox(f, local, nil)
							}
						}
					}
				}
			}
		}
	}
}

// setBox sets the values of f in box b to those of vals at the same index,
// or to zoneSentinel when vals is nil.
func setBox(f *grid.Field3, b fd.Box, vals []float32) {
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				n := f.Idx(i, j, k)
				if vals == nil {
					f.Data()[n] = zoneSentinel
				} else {
					f.Data()[n] = vals[n]
				}
			}
		}
	}
}

// expectZoneBits fails unless got and want hold the same bits everywhere
// and got holds zoneSentinel outside box b. The arrays are compared as
// bytes first, so the per-value scan that names the first difference runs
// only on a failure.
func expectZoneBits(t *testing.T, label string, got, want []*grid.Field3, b fd.Box) {
	t.Helper()
	for fi, f := range got {
		gd, wd := f.Data(), want[fi].Data()
		image := slices.Clone(gd)
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					image[f.Idx(i, j, k)] = zoneSentinel
				}
			}
		}
		if bytes.Equal(asBytes(gd), asBytes(wd)) && bytes.Equal(asBytes(image), sentinels(len(image))) {
			continue
		}
		g := testkit.Ghost(f)
		for k := -g; k < f.NZ+g; k++ {
			for j := -g; j < f.NY+g; j++ {
				for i := -g; i < f.NX+g; i++ {
					n := f.Idx(i, j, k)
					x := math.Float32bits(gd[n])
					if x != math.Float32bits(wd[n]) {
						t.Fatalf("%s: field %d (%d,%d,%d) = %#x, Go stores %#x", label, fi, i, j, k, x, math.Float32bits(wd[n]))
					}
					if math.Float32bits(image[n]) != math.Float32bits(zoneSentinel) {
						t.Fatalf("%s: field %d (%d,%d,%d) outside the tile = %#x", label, fi, i, j, k, x)
					}
				}
			}
		}
	}
}

// asBytes views x's values as their bytes.
func asBytes(x []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 4*len(x))
}

var sentinelBytes []byte

// sentinels returns the bytes of n zoneSentinels.
func sentinels(n int) []byte {
	for len(sentinelBytes) < 4*n {
		sentinelBytes = append(sentinelBytes, asBytes([]float32{zoneSentinel})...)
	}
	return sentinelBytes[:4*n]
}

// TestZoneSweepRejectsTilesPastTheArray: a zone tile past the zone, or whose
// windows run past the medium's arrays, the splits or the coefficient rows,
// must panic, and under the walker before anything is stored. The global
// arrays' ghost frame holds every stencil window of a tile inside the
// medium's, so a tile past them is past the medium's first.
func TestZoneSweepRejectsTilesPastTheArray(t *testing.T) {
	d := grid.Dims{NX: 12, NY: 6, NZ: 6}
	h := 100.0
	m := makeMedium(t, cvm.SoCal(1200, 600, 600, 400), d, h)
	dt := m.StableDt(0.45)
	cases := []struct {
		name       string
		z          walkerZone
		widenSplit int // cells the zone grows on every axis after NewPML
		widenCoef  int // rows the zone grows after Prepare
		past       int // cells the tile reaches past the zone in x
	}{
		// The tile ends a cell past the zone.
		{"zone", walkerZone{box: fd.Box{I0: 2, I1: 10, J0: 0, J1: 3, K0: 0, K1: 3}, axis: grid.Z, side: grid.Low, width: 3}, 0, 0, 1},
		// The last plane runs past the medium's arrays, which hold the
		// subgrid's cells (and its +2 stencil windows past the global ones).
		{"medium", walkerZone{box: fd.Box{I0: 2, I1: 10, J0: 0, J1: d.NY, K0: d.NZ - 3, K1: d.NZ + 1}, axis: grid.Z, side: grid.High, width: 3}, 0, 0, 0},
		// Widened by a cell on every axis after NewPML, the tile runs past the
		// split arrays.
		{"splits", walkerZone{box: fd.Box{I0: 2, I1: 10, J0: 0, J1: 3, K0: 0, K1: 3}, axis: grid.Z, side: grid.Low, width: 3}, 1, 0, 0},
		// Widened by a row after Prepare, the last row has no coefficients.
		{"coefficients", walkerZone{box: fd.Box{I0: 2, I1: 10, J0: 0, J1: 3, K0: 0, K1: d.NZ}, axis: grid.Y, side: grid.Low, width: 3}, 0, 1, 0},
	}
	for _, c := range cases {
		for _, sw := range zoneSweeps {
			for _, vec := range []bool{false, fd.Vector} {
				pm := NewPML(c.z.box, c.z.axis, c.z.side, c.z.width, DefaultMPMLRatio, DefaultPMLReflection, m.MaxVp, h)
				pm.Zone.I1 += c.widenSplit
				pm.Zone.J1 += c.widenSplit
				pm.Zone.K1 += c.widenSplit
				pm.Prepare(dt)
				pm.Zone.J1 += c.widenCoef
				tile := pm.Zone
				tile.I1 += c.past
				s := fd.NewState(d)
				fields, names := pmlFields(s, []*PML{pm})
				rng := rand.New(rand.NewSource(7))
				fillFront(rng, fields)
				before := make([][]float32, len(fields))
				for fi, f := range fields {
					before[fi] = slices.Clone(f.Data())
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s %s sweep vec=%v over %v: no panic", c.name, sw.name, vec, tile)
						}
					}()
					sw.run(pm, s, m, dt, tile, vec)
				}()
				if !vec {
					continue
				}
				for fi, f := range fields {
					if !slices.EqualFunc(f.Data(), before[fi], func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
						t.Errorf("%s %s walker over %v: %s stored before the panic", c.name, sw.name, tile, names[fi])
					}
				}
			}
		}
	}
}
