package solver

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/checkpoint"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/telemetry"
	"repro/internal/testkit"
)

// The identity harness holds every way of executing a scenario to one
// reference, bit for bit (the paper's aVal acceptance, §III.H).
//
// A physics row is a scenario — medium, boundaries, sources, fault — and its
// reference is the production stepper on one rank, whole sweeps, telemetry
// off and the Go row bodies, held after every step to the two-pass oracle
// (oracle_test.go). The execution axes must not change a bit: comm model,
// topology (uneven cuts included), tile shape, active box or whole sweeps,
// telemetry, Surface output and its flush interval, a checkpoint and
// rollback, and the 8-lane walkers. identityArray covers them and the
// physics row pairwise. After every Step each row compares every rank's
// Stepper.Sections() with the reference's in global coordinates — the whole
// padded arrays, ghosts included, on the reference's own topology under a
// comm model that ships every ghost — and at the end every Result field by
// its bits. Each row runs once per test binary; the seed-era identity tests
// are views of the rows that vary their axes.

var (
	identityComms  = []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap}
	identityTopos  = []mpi.Cart{mpi.NewCart(1, 1, 1), mpi.NewCart(2, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2), mpi.NewCart(1, 3, 1), mpi.NewCart(2, 1, 2), mpi.NewCart(1, 2, 2)}
	identityShapes = []fd.Blocking{{}, {JBlock: 8, KBlock: 16}, {JBlock: 3, KBlock: 5}}
	// identityFlushes are the Surface rows' frames a flush: one a frame up
	// to one at Finish.
	identityFlushes = []int{1, 3, 6, 100}
	hostVector      = fd.Vector
)

// The array's axes; a row holds an index into each axis's values, and the
// last five are off (0) or on (1).
const (
	axPhysics = iota
	axComm
	axFlush
	axTopo
	axShape
	axBox
	axTelemetry
	axSurface
	axCheckpoint
	axVector
)

func axisSizes() []int {
	return []int{len(identityPhysics()), len(identityComms), len(identityFlushes), len(identityTopos), len(identityShapes), 2, 2, 2, 2, 2}
}

// physicsRow is a scenario; its options leave every execution axis unset.
type physicsRow struct {
	name  string
	q     cvm.Querier
	opt   Options
	check func(ref *reference) string // why the reference misses the row's mechanism, or ""
}

var identityPhysics = sync.OnceValue(func() []*physicsRow {
	soCal := cvm.SoCal(2400, 2400, 1600, 400)
	boxQ := cvm.SoCal(3200, 2800, 2000, 400)

	filled := baseOptions(mpi.Cart{})
	filled.Variant, filled.Steps = fd.Default, 32
	front := filled
	// Off the seams at 12/12/8, so the front has to travel to them.
	front.Sources = []source.SampledSource{source.PointSource{GI: 6, GJ: 7, GK: 4, M0: 1e15,
		Tensor: source.Explosion, STF: source.GaussianPulse(0.08, 0.02)}.Sample(0.002, 200)}
	front.Steps = 16
	mpml := front
	mpml.ABC, mpml.pmlWidth = MPMLABC, 3
	// The window's first two columns lie in the x-low zone, so zone tiles
	// carry fault nodes and correction rows.
	mpmlFault := mpml
	mpmlFault.Sources, mpmlFault.Fault = nil, overstressedFault(12, 1, 16, 3, 10)
	sponge := boxScenario(SpongeABC)
	elastic := sponge
	elastic.Attenuation = false
	spongeFault := sponge
	spongeFault.Sources, spongeFault.Fault = nil, overstressedFault(11, 10, 10, 2, 6)
	return []*physicsRow{
		{"filled", soCal, filled, nil},
		{"front", soCal, front, reachesXSeam},
		{"mpml", soCal, mpml, splitsMove},
		{"fault", soCal, mpmlFault, func(ref *reference) string { return cmp.Or(splitsMove(ref), faultSlips(ref)) }},
		{"sponge", boxQ, sponge, nil},
		{"sponge-elastic", boxQ, elastic, nil},
		{"sponge-fault", boxQ, spongeFault, faultSlips},
		{"rupture", cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), ruptureOptions(),
			func(ref *reference) string { return cmp.Or(faultSlips(ref), ruptureSpreads(ref)) }},
	}
})

// boxScenario is a 32x28x20 grid whose explosion sits two cells inside the
// 2x2x2 seams at 16/14/10, so its first values cross into three neighbors in
// step one while its own rank's box still has 16 cells to grow toward the
// far faces. A second, weaker source of pure sxy sits at depth 1 in the y-low
// absorbing zone, three cells from the x seam — outside the planes a stress
// exchange ships: the first its x neighbor sees of it is vy(k=1) in its
// ghosts, a hull one plane thick. Under the sponge its stress tile must add
// it before damping the plane.
func boxScenario(abc ABCKind) Options {
	stf := source.GaussianPulse(0.08, 0.02)
	return Options{
		Global: grid.Dims{NX: 32, NY: 28, NZ: 20}, H: 100, Steps: 12,
		ABC: abc, pmlWidth: 3, SpongeWidth: 4, FreeSurface: true, Attenuation: true,
		Sources: []source.SampledSource{
			source.PointSource{GI: 13, GJ: 11, GK: 7, M0: 1e15, Tensor: source.Explosion, STF: stf}.Sample(0.002, 200),
			source.PointSource{GI: 13, GJ: 2, GK: 1, M0: 1e14, Tensor: source.StrikeSlipXY, STF: stf}.Sample(0.002, 200),
		},
		Receivers: [][3]int{{13, 11, 2}, {20, 11, 7}, {13, 20, 12}},
		TrackPGV:  true,
	}
}

// ruptureOptions is a spontaneous rupture from a nucleation patch off the
// seams at x = 16 and z = 10, which its front has to cross, with slip rates
// recorded every other step.
func ruptureOptions() Options {
	f := overstressedFault(6, 4, 24, 3, 14)
	for k, row := range f.Tau0 {
		for i := range row {
			if di, dk := f.I0+i-10, f.K0+k-7; di*di+dk*dk > 16 {
				row[i] = 74e6
			}
		}
	}
	f.RecordEvery = 2
	return Options{
		Global: grid.Dims{NX: 32, NY: 12, NZ: 20}, H: 100, Steps: 100,
		ABC: SpongeABC, SpongeWidth: 4, Fault: f,
		Receivers: [][3]int{{8, 3, 6}, {24, 9, 14}, {16, 6, 10}},
		TrackPGV:  true,
	}
}

// overstressedFault is a fault window of ni x nk nodes from (i0, k0) on the
// plane y = j0, overstressed everywhere, so it slips from the first step.
func overstressedFault(j0, i0, ni, k0, nk int) *FaultSpec {
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := range tau {
		tau[k] = make([]float64, ni)
		sn[k] = make([]float64, ni)
		fr[k] = make([]rupture.Friction, ni)
		for i := range tau[k] {
			sn[k][i], tau[k][i] = 120e6, 84e6
			fr[k][i] = rupture.Friction{MuS: 0.677, MuD: 0.525, Dc: 0.02}
		}
	}
	return &FaultSpec{J0: j0, I0: i0, I1: i0 + ni, K0: k0, K1: k0 + nk,
		Tau0: tau, SigmaN: sn, Friction: fr}
}

// reachesXSeam: vx on the seam plane i = NX/2 is at rest after the first
// step and moving by the last, so the floor decides what the seams store.
func reachesXSeam(ref *reference) string {
	g := ref.opt.Global
	moving := func(step int) bool {
		for n := 0; n < g.NY*g.NZ; n++ {
			if ref.at(step, "vx", g.NX/2, n%g.NY, n/g.NY) != 0 {
				return true
			}
		}
		return false
	}
	if moving(0) || !moving(ref.opt.Steps-1) {
		return "the front does not reach the x seam inside the window"
	}
	return ""
}

// splitsMove: each of the 24 stored splits moves in some zone by the end.
func splitsMove(ref *reference) string {
	moving := map[string]bool{}
	for _, sec := range ref.snaps[ref.opt.Steps-1] {
		if zone, ok := strings.CutPrefix(sec.Name, "pml."); ok {
			split := zone[strings.Index(zone, ".")+1:]
			moving[split] = moving[split] || slices.ContainsFunc(sec.F32, func(v float32) bool { return v != 0 })
		}
	}
	for split, m := range moving {
		if !m || len(moving) != 24 {
			return fmt.Sprintf("%d stored splits, %s moving %v", len(moving), split, m)
		}
	}
	return ""
}

func faultSlips(ref *reference) string {
	if st := ref.res.FaultStats; st.MaxSlip == 0 || st.RupturedFraction == 0 {
		return fmt.Sprintf("the fault did not slip: %+v", st)
	}
	return ""
}

// ruptureSpreads: the front crosses the x and the z seam of 2x1x2 by two
// nodes, and slip rates are recorded.
func ruptureSpreads(ref *reference) string {
	f, g := ref.opt.Fault, ref.opt.Global
	var pastX, pastZ bool
	for k, row := range ref.res.FaultRupTime {
		for i, t := range row {
			pastX = pastX || t >= 0 && f.I0+i >= g.NX/2+2
			pastZ = pastZ || t >= 0 && f.K0+k >= g.NZ/2+2
		}
	}
	if !pastX || !pastZ || len(ref.res.SlipSeries) == 0 {
		return fmt.Sprintf("rupture past the x seam %v, the z seam %v; %d slip-rate series", pastX, pastZ, len(ref.res.SlipSeries))
	}
	return ""
}

// allowedPairs lists, in a fixed order, each pair of values (a, u, b, v) of
// axes a <= b that required asks for and allowed admits — with a == b, value
// u alone.
func allowedPairs(sizes []int, allowed func([]int) bool, required func(a, b int) bool) [][4]int {
	var pairs [][4]int
	for a := range sizes {
		for b := a; b < len(sizes); b++ {
			for u := range sizes[a] {
				for v := range sizes[b] {
					row := unsetRow(len(sizes))
					row[a], row[b] = u, v
					if required(a, b) && (a != b || u == v) && allowed(row) {
						pairs = append(pairs, [4]int{a, u, b, v})
					}
				}
			}
		}
	}
	return pairs
}

// rowPairs lists the pairs of values a row holds, each value alone among
// them.
func rowPairs(row []int) (pairs [][4]int) {
	for a := range row {
		for b := a; b < len(row); b++ {
			pairs = append(pairs, [4]int{a, row[a], b, row[b]})
		}
	}
	return pairs
}

// unsetRow is a row of n axes, none set (-1).
func unsetRow(n int) []int {
	row := make([]int, n)
	for a := range row {
		row[a] = -1
	}
	return row
}

// coveringArray returns rows plus rows that allowed admits until they hold
// every pair: a covering array of strength 2 (Kuhn, Kacker & Lei, NIST SP
// 800-142), built greedily as AETG is but without its random candidates.
// Each new row starts from the first pair still uncovered and takes, axis
// by axis, the allowed value that covers the most uncovered pairs with the
// axes already set — on a tie the one the rows so far hold least, then the
// lowest — so the values spread over the rows that only fill a pair, and
// the array is a function of its arguments.
func coveringArray(rows [][]int, sizes []int, pairs [][4]int, allowed func([]int) bool) [][]int {
	uncovered := map[[4]int]bool{}
	for _, p := range pairs {
		uncovered[p] = true
	}
	used := make([][]int, len(sizes))
	for a, n := range sizes {
		used[a] = make([]int, n)
	}
	for _, row := range rows {
		for _, p := range rowPairs(row) {
			delete(uncovered, p)
		}
		for a, u := range row {
			used[a][u]++
		}
	}
	gain := func(row []int, a int) (n int) {
		for b, v := range row {
			if lo, hi := min(a, b), max(a, b); v >= 0 && uncovered[[4]int{lo, row[lo], hi, row[hi]}] {
				n++
			}
		}
		return n
	}
	for _, p := range pairs {
		if !uncovered[p] {
			continue
		}
		row := unsetRow(len(sizes))
		row[p[0]], row[p[2]] = p[1], p[3]
		for a := range sizes {
			if row[a] >= 0 {
				continue
			}
			best, most := 0, -1
			for u := range sizes[a] {
				if row[a] = u; allowed(row) {
					if n := gain(row, a); n > most || n == most && used[a][u] < used[a][best] {
						best, most = u, n
					}
				}
			}
			row[a] = best
		}
		for _, p := range rowPairs(row) {
			delete(uncovered, p)
		}
		for a, u := range row {
			used[a][u]++
		}
		rows = append(rows, row)
	}
	return rows
}

// identityAllowed is the array's one constraint on a row whose unset axes are
// -1: DFR mode's PY = 1.
func identityAllowed(row []int) bool {
	if p, t := row[axPhysics], row[axTopo]; p >= 0 && t >= 0 {
		return identityPhysics()[p].opt.Fault == nil || identityTopos[t].PY == 1
	}
	return true
}

// identityRequired is the array's strength: every pair of axes; with short,
// every pair of execution axes and each physics row once.
func identityRequired(short bool) func(a, b int) bool {
	return func(a, b int) bool { return !short || a != axPhysics || b == axPhysics }
}

// identityRow is a row of the array, decoded.
type identityRow struct {
	name                                string
	phys                                *physicsRow
	comm                                CommModel
	flush                               int
	topo                                mpi.Cart
	shape                               fd.Blocking
	box, tel, surface, ckpt, vectorized bool
}

// identityArray is the array's rows, grouped by physics row; -short asks
// only the execution axes' pairs.
var identityArray = sync.OnceValue(func() []identityRow {
	raw := arrayRows(testing.Short())
	slices.SortStableFunc(raw, func(a, b []int) int { return a[axPhysics] - b[axPhysics] })
	var rows []identityRow
	for _, v := range raw {
		rows = append(rows, identityRow{name: rowName(v), phys: identityPhysics()[v[axPhysics]], comm: identityComms[v[axComm]],
			flush: identityFlushes[v[axFlush]], topo: identityTopos[v[axTopo]], shape: identityShapes[v[axShape]], box: v[axBox] == 1,
			tel: v[axTelemetry] == 1, surface: v[axSurface] == 1, ckpt: v[axCheckpoint] == 1, vectorized: v[axVector] == 1})
	}
	return rows
})

// arrayRows is the array: with short, from no rows; otherwise from the seed.
func arrayRows(short bool) [][]int {
	var rows [][]int
	if !short {
		for _, name := range identitySeed {
			rows = append(rows, rowOf(name))
		}
	}
	sizes := axisSizes()
	return coveringArray(rows, sizes, allowedPairs(sizes, identityAllowed, identityRequired(short)), identityAllowed)
}

// identitySeed is the full array's first rows, by name. A row's name is its
// subtest's, so they are kept as they were when the array last lost physics
// rows; coveringArray adds rows for the pairs they leave uncovered, and a
// value appended to an axis adds rows the same way, renaming none.
var identitySeed = []string{
	"fault.async-reduced.t1.2x1x1.tiles0x0.whole.quiet.nosurf.run.go",
	"fault.async.t2.1x1x1.tiles8x16.box.quiet.surf.run.avx",
	"fault.overlap.t4.2x1x2.tiles0x0.box.quiet.surf.run.avx",
	"fault.sync.t3.1x1x1.tiles3x5.whole.tel.nosurf.ckpt.go",
	"filled.async-reduced.t2.1x3x1.tiles0x0.whole.quiet.surf.run.go",
	"filled.async-reduced.t3.2x1x1.tiles8x16.whole.quiet.surf.run.go",
	"filled.async.t3.2x1x2.tiles3x5.whole.tel.surf.ckpt.avx",
	"filled.overlap.t1.2x2x1.tiles8x16.box.tel.surf.ckpt.avx",
	"filled.overlap.t4.1x2x2.tiles3x5.box.tel.surf.ckpt.avx",
	"filled.sync.t1.1x1x1.tiles0x0.whole.quiet.nosurf.run.go",
	"filled.sync.t4.2x2x2.tiles3x5.whole.quiet.surf.run.go",
	"front.async-reduced.t1.2x1x2.tiles0x0.box.tel.nosurf.ckpt.go",
	"front.async.t2.2x1x1.tiles8x16.box.tel.surf.ckpt.avx",
	"front.async.t3.1x3x1.tiles0x0.box.tel.surf.ckpt.avx",
	"front.overlap.t2.1x1x1.tiles3x5.box.tel.surf.run.avx",
	"front.overlap.t4.2x2x1.tiles3x5.box.tel.surf.ckpt.avx",
	"front.sync.t1.1x2x2.tiles0x0.whole.quiet.nosurf.run.go",
	"front.sync.t1.2x2x2.tiles0x0.whole.quiet.surf.run.go",
	"front.sync.t4.2x1x1.tiles3x5.whole.quiet.surf.run.go",
	"mpml.async-reduced.t3.1x3x1.tiles3x5.whole.quiet.surf.run.go",
	"mpml.async-reduced.t3.2x2x1.tiles3x5.whole.tel.nosurf.ckpt.go",
	"mpml.async.t2.1x1x1.tiles8x16.box.tel.surf.ckpt.avx",
	"mpml.async.t2.1x2x2.tiles8x16.box.tel.surf.ckpt.avx",
	"mpml.async.t4.2x2x2.tiles0x0.whole.tel.surf.run.go",
	"mpml.overlap.t1.2x1x1.tiles8x16.whole.quiet.nosurf.ckpt.avx",
	"mpml.sync.t2.2x1x2.tiles8x16.box.quiet.surf.ckpt.avx",
	"rupture.async-reduced.t1.2x1x1.tiles0x0.whole.quiet.nosurf.run.go",
	"rupture.async.t2.1x1x1.tiles8x16.whole.tel.nosurf.ckpt.go",
	"rupture.overlap.t3.2x1x1.tiles0x0.whole.tel.nosurf.ckpt.go",
	"rupture.sync.t4.2x1x2.tiles3x5.box.quiet.surf.run.avx",
	"sponge-elastic.async-reduced.t3.1x1x1.tiles0x0.whole.quiet.nosurf.run.go",
	"sponge-elastic.async-reduced.t3.2x2x2.tiles8x16.whole.tel.surf.run.go",
	"sponge-elastic.async.t1.1x3x1.tiles3x5.whole.tel.surf.run.go",
	"sponge-elastic.overlap.t4.1x2x2.tiles0x0.box.tel.surf.ckpt.avx",
	"sponge-elastic.overlap.t4.1x3x1.tiles3x5.whole.quiet.nosurf.run.go",
	"sponge-elastic.overlap.t4.2x1x1.tiles8x16.box.tel.surf.ckpt.avx",
	"sponge-elastic.sync.t1.2x1x2.tiles3x5.whole.quiet.nosurf.run.go",
	"sponge-elastic.sync.t2.2x2x1.tiles0x0.box.quiet.nosurf.ckpt.avx",
	"sponge-fault.async-reduced.t4.1x1x1.tiles8x16.whole.quiet.nosurf.ckpt.avx",
	"sponge-fault.async.t3.2x1x1.tiles0x0.whole.quiet.nosurf.ckpt.avx",
	"sponge-fault.overlap.t1.1x1x1.tiles8x16.box.tel.surf.ckpt.avx",
	"sponge-fault.sync.t2.2x1x2.tiles3x5.box.tel.surf.run.go",
	"sponge.async-reduced.t3.1x2x2.tiles3x5.whole.quiet.surf.run.go",
	"sponge.async-reduced.t4.1x3x1.tiles8x16.box.quiet.nosurf.ckpt.avx",
	"sponge.async.t2.2x1x2.tiles3x5.box.tel.surf.ckpt.avx",
	"sponge.async.t3.2x2x1.tiles0x0.whole.tel.surf.ckpt.go",
	"sponge.overlap.t1.2x2x2.tiles3x5.box.tel.surf.run.avx",
	"sponge.overlap.t4.1x1x1.tiles0x0.box.tel.surf.ckpt.avx",
	"sponge.sync.t1.2x1x1.tiles8x16.whole.quiet.surf.run.go",
	"sponge.sync.t2.2x2x2.tiles3x5.box.quiet.nosurf.run.avx",
}

// axisLabel is value u of axis a as a row's name spells it.
func axisLabel(a, u int) string {
	switch a {
	case axPhysics:
		return identityPhysics()[u].name
	case axComm:
		return identityComms[u].String()
	case axFlush:
		// t1–t4: the labels the rows had when this axis set the per-rank
		// thread count, which is gone; a row's name is its subtest's, so
		// they are kept.
		return fmt.Sprintf("t%d", u+1)
	case axTopo:
		t := identityTopos[u]
		return fmt.Sprintf("%dx%dx%d", t.PX, t.PY, t.PZ)
	case axShape:
		b := identityShapes[u]
		return fmt.Sprintf("tiles%dx%d", b.JBlock, b.KBlock)
	}
	return [...][2]string{{"whole", "box"}, {"quiet", "tel"}, {"nosurf", "surf"}, {"run", "ckpt"}, {"go", "avx"}}[a-axBox][u]
}

// rowName is a row's subtest name: its values' labels, axis by axis.
func rowName(row []int) string {
	labels := make([]string, len(row))
	for a, u := range row {
		labels[a] = axisLabel(a, u)
	}
	return strings.Join(labels, ".")
}

// rowOf reads a row back from its name; an axis whose label it does not
// find is unset (-1).
func rowOf(name string) []int {
	labels, sizes := strings.Split(name, "."), axisSizes()
	row := unsetRow(len(sizes))
	for a := range row {
		for u := range sizes[a] {
			if a < len(labels) && axisLabel(a, u) == labels[a] {
				row[a] = u
			}
		}
	}
	return row
}

// TestIdentityArrayCoversPairs: both arrays, full and -short, hold only
// allowed rows and every allowed pair they ask for.
func TestIdentityArrayCoversPairs(t *testing.T) {
	for _, short := range []bool{false, true} {
		pairs := allowedPairs(axisSizes(), identityAllowed, identityRequired(short))
		rows := arrayRows(short)
		seen := map[[4]int]bool{}
		for _, row := range rows {
			if !identityAllowed(row) || slices.Contains(row, -1) {
				t.Fatalf("short %v: row %v is not allowed", short, row)
			}
			for _, p := range rowPairs(row) {
				seen[p] = true
			}
		}
		for _, p := range pairs {
			if !seen[p] {
				t.Errorf("short %v: allowed pair %v lies in no row", short, p)
			}
		}
		t.Logf("short %v: %d rows hold %d allowed pairs", short, len(rows), len(pairs))
	}
}

// region places a section's values in the global grid: the cells of box,
// stored as the padded array of a subgrid of dims pad whose cell (0, 0, 0)
// is org or, with pad zero, densely over box. A fault section's box is its
// (i, k) window at j = 0.
type region struct {
	box fd.Box
	org [3]int
	pad grid.Dims
}

// index is the offset of global cell (i, j, k) in the section.
func (r region) index(i, j, k int) int {
	if d, g := r.pad, grid.Ghost; d.NX > 0 {
		return ((k-r.org[2]+g)*(d.NY+2*g)+j-r.org[1]+g)*(d.NX+2*g) + i - r.org[0] + g
	}
	b := r.box
	return ((k-b.K0)*(b.J1-b.J0)+j-b.J0)*(b.I1-b.I0) + i - b.I0
}

// framed is r with a padded section's ghost frame.
func (r region) framed() region {
	if g, b := grid.Ghost, r.box; r.pad.NX > 0 {
		r.box = fd.Box{I0: b.I0 - g, I1: b.I1 + g, J0: b.J0 - g, J1: b.J1 + g, K0: b.K0 - g, K1: b.K1 + g}
	}
	return r
}

// sectionRegions places each of st's Sections(), found by name through its
// owner.
func sectionRegions(st *Stepper) ([]region, error) {
	rs, sub := st, st.sub
	o := [3]int{sub.OffX, sub.OffY, sub.OffZ}
	at := func(b fd.Box) fd.Box {
		return fd.Box{I0: b.I0 + o[0], I1: b.I1 + o[0], J0: b.J0 + o[1], J1: b.J1 + o[1], K0: b.K0 + o[2], K1: b.K1 + o[2]}
	}
	where := map[string]region{}
	for _, s := range rs.st.Sections() {
		where[s.Name] = region{at(fd.FullBox(sub.Local)), o, sub.Local}
	}
	if rs.atten != nil {
		for _, s := range rs.atten.Sections() {
			where[s.Name] = region{box: at(fd.FullBox(sub.Local))}
		}
	}
	for _, z := range rs.zones {
		for _, s := range z.Sections() {
			where[s.Name] = region{box: at(z.Zone)}
		}
	}
	if f := st.opt.Fault; rs.fault != nil {
		w := at(fd.FullBox(sub.Local)).Intersect(fd.Box{I0: f.I0, I1: f.I1, J0: f.J0, J1: f.J0 + 1, K0: f.K0, K1: f.K1})
		w.J0, w.J1 = 0, 1
		for _, s := range rs.fault.Sections() {
			where[s.Name] = region{box: w}
		}
		where["fault.clock"] = region{box: fd.Box{I1: 1, J1: 1, K1: 1}} // one value, on every fault rank
	}
	var regs []region
	for _, s := range st.Sections() {
		r, ok := where[s.Name]
		if !ok {
			return nil, fmt.Errorf("section %s has no owner", s.Name)
		}
		regs = append(regs, r)
	}
	return regs, nil
}

// valueAt returns value n of s as its bits and as a float64.
func valueAt(s grid.Section, n int) (uint64, float64) {
	if s.F64 != nil {
		return math.Float64bits(s.F64[n]), s.F64[n]
	}
	return uint64(math.Float32bits(s.F32[n])), float64(s.F32[n])
}

// diffState compares one rank's sections, placed by regs, with the value
// want, placed by wregs, holds at the same global cell, and describes the
// first difference; every value must meet one. With framed the state is held
// to want on the whole padded arrays.
func diffState(secs []grid.Section, regs []region, want []grid.Section, wregs []region, framed bool) string {
	for si, sec := range secs {
		r, n := regs[si], 0
		if framed {
			r = r.framed()
		}
		for wi, w := range want {
			if w.Name != sec.Name {
				continue
			}
			q := wregs[wi]
			if framed {
				q = q.framed()
			}
			b := r.box.Intersect(q.box)
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						got, v := valueAt(sec, r.index(i, j, k))
						if exp, x := valueAt(w, q.index(i, j, k)); got != exp {
							return fmt.Sprintf("%s(%d,%d,%d) = %g (%#x), reference %g (%#x)", sec.Name, i, j, k, v, got, x, exp)
						}
						n++
					}
				}
			}
		}
		if n < r.box.Cells() {
			return fmt.Sprintf("%s: %d of %d values lie in no reference section", sec.Name, r.box.Cells()-n, r.box.Cells())
		}
	}
	return ""
}

// reference is a physics row's reference run: its one rank's sections after
// each Step, placed by regs, and its Result.
type reference struct {
	opt   Options // as run
	snaps [][]grid.Section
	regs  []region
	res   *Result
	fail  string // why the reference itself does not hold
}

// at is the reference's value of section name at global cell (i, j, k) after
// step.
func (ref *reference) at(step int, name string, i, j, k int) float64 {
	for si, s := range ref.snaps[step] {
		if q := ref.regs[si]; s.Name == name && q.box.Contains(fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1}) {
			_, v := valueAt(s, q.index(i, j, k))
			return v
		}
	}
	return math.NaN()
}

// useVector sets fd.Vector for a run — on only where the host has the
// walkers — and returns what restores it.
func useVector(on bool) func() {
	old := fd.Vector
	fd.Vector = on && hostVector
	return func() { fd.Vector = old }
}

// failures keeps the first failure a world's ranks report.
type failures struct {
	once sync.Once
	msg  string
}

func (f *failures) add(format string, args ...any) {
	f.once.Do(func() { f.msg = fmt.Sprintf(format, args...) })
}

// build runs p's reference: one rank, Asynchronous, whole sweeps, telemetry
// off, the Go row bodies, beside the two-pass oracle, which it must match on
// the interior of every section after every step. Some receiver must record
// signal.
func (p *physicsRow) build() *reference {
	opt := p.opt
	opt.Topo, opt.Comm = mpi.NewCart(1, 1, 1), Asynchronous
	defer useVector(false)()
	ref := &reference{opt: opt, snaps: make([][]grid.Section, opt.Steps)}
	var fail failures
	var orc *Stepper
	var orcRegs []region
	res, err := runWorld(p.q, opt, func(c *mpi.Comm, st *Stepper) {
		st.box.fill()
		var err error
		ref.regs, err = sectionRegions(st)
		if err == nil {
			dc, o, perr := Prepare(opt)
			if err = perr; err == nil {
				orc, err = NewStepper(c, p.q, dc, o)
			}
			if err == nil {
				orcRegs, err = sectionRegions(orc)
			}
		}
		if err != nil {
			fail.add("%v", err)
		}
	}, func(c *mpi.Comm, st *Stepper) {
		step, secs := st.StepIndex()-1, st.Sections()
		if orc != nil {
			twoPassOracle(orc, orc.dt, step)
			if msg := diffState(secs, ref.regs, orc.Sections(), orcRegs, false); msg != "" {
				fail.add("step %d against the two-pass oracle: %s", step+1, msg)
			}
		}
		for _, s := range secs {
			ref.snaps[step] = append(ref.snaps[step], grid.Section{Name: s.Name, F32: slices.Clone(s.F32), F64: slices.Clone(s.F64)})
		}
	})
	ref.res, ref.fail = res, fail.msg
	if err != nil {
		ref.fail = err.Error()
	}
	if ref.fail == "" && !slices.ContainsFunc(res.Seismograms, func(s [][3]float32) bool { return maxSeriesAbs(s) > 0 }) {
		ref.fail = "no receiver records signal"
	}
	if ref.fail == "" && p.check != nil {
		ref.fail = p.check(ref)
	}
	return ref
}

// identityMemo holds each row's verdict, the first value each key of
// firstOf was given, and the reference of the physics row last asked for:
// the rows are grouped by physics row, so a test that asks for them in order
// builds each reference once.
var identityMemo = struct {
	verdicts map[string]string
	first    map[string]any
	phys     *physicsRow
	ref      *reference
}{verdicts: map[string]string{}, first: map[string]any{}}

// firstOf returns the value the first row to run gave key, v if none has.
func firstOf[T any](key string, v T) T {
	if w, ok := identityMemo.first[key]; ok {
		return w.(T)
	}
	identityMemo.first[key] = v
	return v
}

// identityResult runs r once per test binary and returns why it fails, or "".
func identityResult(r identityRow) string {
	m := &identityMemo
	if v, ok := m.verdicts[r.name]; ok {
		return v
	}
	if m.phys != r.phys {
		m.phys, m.ref = r.phys, nil // drop the last reference before the next is built
		m.ref = r.phys.build()
	}
	v := "reference: " + m.ref.fail
	if m.ref.fail == "" {
		v = r.run(m.ref)
	}
	m.verdicts[r.name] = v
	return v
}

// run executes the row and holds it to ref.
func (r identityRow) run(ref *reference) string {
	// Every row with the same physics row, topology, box and rollback reports
	// the same share: telemetry, comm model, flush interval and tiles must not
	// move it. A telemetry row whose key no row has set yet runs its twin without
	// telemetry first, so the share it is held to comes from a run without a
	// recorder.
	shareKey := fmt.Sprint("share", r.phys.name, r.topo, r.box, r.ckpt)
	if _, ok := identityMemo.first[shareKey]; r.tel && !ok {
		twin := r
		twin.tel = false
		if msg := twin.run(ref); msg != "" {
			return "without telemetry: " + msg
		}
	}
	opt := r.phys.opt
	opt.Topo, opt.Comm, opt.Blocking = r.topo, r.comm, r.shape
	if r.tel {
		opt.Telemetry = &telemetry.Options{TraceEvents: 256}
	}
	fsys := surfaceFS()
	if r.surface {
		fsys.SetStripe("out/", 4, 1<<12)
		opt.Surface = &SurfaceOptions{FS: fsys, Path: "out/surface.bin", Every: 2,
			FlushEvery: r.flush, Agg: agg.Config{Aggregators: 2}}
	}
	defer useVector(r.vectorized)()
	same, ranks := r.topo == ref.opt.Topo, r.topo.Size()
	// The reduced exchanges (AsyncReduced, AsyncOverlap) leave a stress's
	// ghosts across an axis it is not shipped along unwritten: their padded
	// arrays are the reference's in the interior only.
	framed := same && (r.comm == Synchronous || r.comm == Asynchronous)
	var fail failures
	var mu sync.Mutex
	var calls, clipping int
	var sourceless, arrived, liveRollback bool
	regs, rolled := make([][]region, ranks), make([]bool, ranks)
	// A row checkpoints, steps on, restores and rolls back, and the replay
	// must store the same bits: with the box after step 1, while the boxes
	// are live, and back from step 2; without it mid-run.
	at := max(opt.Steps/2, 1)
	if r.box {
		at = 1
	}
	res, err := runWorld(r.phys.q, opt, func(c *mpi.Comm, st *Stepper) {
		if !r.box {
			st.box.fill()
		}
		var err error
		if regs[c.Rank()], err = sectionRegions(st); err != nil {
			fail.add("%v", err)
		}
	}, func(c *mpi.Comm, st *Stepper) {
		rank, rs, n := c.Rank(), st, st.StepIndex()
		full := rs.box.Box == rs.box.padded
		if r.box && rs.srcs.Count() == 0 && rs.fault == nil {
			mu.Lock()
			sourceless, arrived = true, arrived || !rs.box.Empty()
			mu.Unlock()
		}
		if msg := diffState(st.Sections(), regs[rank], ref.snaps[n-1], ref.regs, framed); msg != "" {
			fail.add("rank %d after step %d: %s", rank, n, msg)
		}
		switch {
		case !r.ckpt || rolled[rank]:
		case n == at:
			if _, err := checkpoint.Write(fsys, "ckpt", rank, at, st.Sections()); err != nil {
				fail.add("rank %d: checkpoint: %v", rank, err)
			}
		case n == at+1:
			rolled[rank] = true
			if !full {
				mu.Lock()
				liveRollback = true
				mu.Unlock()
			}
			err := cmp.Or(checkpoint.Read(fsys, "ckpt", rank, at, st.Sections()), st.SetStepIndex(at))
			if b := rs.box; err != nil || b.Box != b.padded || rs.vel.box != b || rs.stress.box != b {
				fail.add("rank %d: rollback: %v; box after SetStepIndex %v, padded %v", rank, err, b.Box, b.padded)
			}
		}
		if rank == 0 {
			calls++
		}
		if st.Done() && !full {
			mu.Lock()
			clipping++
			mu.Unlock()
		}
	})
	switch {
	case err != nil:
		return err.Error()
	case fail.msg != "":
		return fail.msg
	case !r.box && res.ActiveShare != 1:
		return fmt.Sprintf("whole sweeps report ActiveShare %g, want exactly 1", res.ActiveShare)
	case r.box && !(res.ActiveShare > 0 && res.ActiveShare < 1):
		return fmt.Sprintf("ActiveShare %g, want inside (0, 1)", res.ActiveShare)
	case r.box && clipping > 0:
		return fmt.Sprintf("%d of %d ranks still clip after %d steps", clipping, ranks, opt.Steps)
	case r.box && r.ckpt && !liveRollback:
		return "no rank's box was live at the rollback"
	case sourceless && !arrived && !r.ckpt: // a rollback fills the boxes at step 2, maybe before the front arrives
		return "no rank without a source ever held a live box: the halo rule went unexercised"
	case r.tel != (res.Telemetry != nil):
		return fmt.Sprintf("telemetry %v, report %v", r.tel, res.Telemetry != nil)
	}
	if share := firstOf(shareKey, res.ActiveShare); math.Float64bits(share) != math.Float64bits(res.ActiveShare) {
		return fmt.Sprintf("ActiveShare %g, %g on the first row of this physics row, topology, box and rollback", res.ActiveShare, share)
	}
	msg := cmp.Or(resultDiff(ref.res, res), r.momentDiff(ref, res.MomentRate, same))
	if r.tel {
		msg = cmp.Or(msg, telemetryDiff(res.Telemetry, opt, calls))
	}
	if r.surface {
		msg = cmp.Or(msg, ref.surfaceDiff(fsys, opt, res, r.ckpt))
	}
	return msg
}

// momentDiff holds the moment rate — each rank's sum over its nodes, reduced
// in rank order — to the reference's bits on the reference's topology; on
// another, to within 1e-12 of them and to the bits of the first row of the
// physics row that ran there.
func (r identityRow) momentDiff(ref *reference, mr []float64, same bool) string {
	want := ref.res.MomentRate
	if len(mr) != len(want) {
		return fmt.Sprintf("%d moment-rate samples, reference %d", len(mr), len(want))
	}
	for n, v := range want {
		if !(math.Abs(mr[n]-v) <= 1e-12*math.Abs(v)) {
			return fmt.Sprintf("moment rate at step %d = %g, reference %g", n, mr[n], v)
		}
	}
	if !same {
		want = firstOf(fmt.Sprint("moment", r.phys.name, r.topo), mr)
	}
	return bitsDiff("MomentRate", reflect.ValueOf(want), reflect.ValueOf(mr))
}

// resultDiff describes the first Result field of res whose bits differ from
// ref's, or returns "". It leaves out the Telemetry and Surface reports,
// ActiveShare, which the active box moves (run holds it to the first row of
// its key), and MomentRate (momentDiff); it matches slip-rate series by
// node, since the gather orders them by rank.
func resultDiff(ref, res *Result) string {
	a, b := *ref, *res
	for _, r := range []*Result{&a, &b} {
		r.Telemetry, r.Surface, r.ActiveShare, r.MomentRate = nil, nil, 0, nil
		r.SlipNodes, r.SlipSeries = nil, nil
	}
	series := map[[3]int][]float32{}
	for n, node := range ref.SlipNodes {
		series[node] = ref.SlipSeries[n]
	}
	for n, node := range res.SlipNodes {
		a.SlipSeries = append(a.SlipSeries, series[node])
		b.SlipSeries = append(b.SlipSeries, res.SlipSeries[n])
	}
	if len(res.SlipNodes) != len(series) {
		return fmt.Sprintf("%d slip-rate series, reference %d", len(res.SlipNodes), len(series))
	}
	return bitsDiff("Result", reflect.ValueOf(a), reflect.ValueOf(b))
}

// bitsDiff describes the first place b differs from the reference a, floats
// by their bits.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if floatBits(a) != floatBits(b) {
			return fmt.Sprintf("%s = %g, reference %g", path, b.Float(), a.Float())
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s has %d elements, reference %d", path, b.Len(), a.Len())
		}
		for i := range a.Len() {
			if msg := bitsDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); msg != "" {
				return msg
			}
		}
	case reflect.Struct:
		for i := range a.NumField() {
			if msg := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); msg != "" {
				return msg
			}
		}
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s = %v, reference %v", path, b, a)
		}
	}
	return ""
}

func floatBits(v reflect.Value) uint64 {
	if v.Kind() == reflect.Float32 {
		return uint64(math.Float32bits(float32(v.Float())))
	}
	return math.Float64bits(v.Float())
}

// telemetryDiff checks a telemetry report against the run it describes: a
// snapshot a rank, a step window a Step call, spans in every compute phase,
// message phases exactly when there are neighbors, and their counters, Sync
// spans exactly under the Synchronous model, and an event trace that exports
// as Chrome trace-event JSON.
func telemetryDiff(rep *telemetry.Report, opt Options, calls int) string {
	ranks := opt.Topo.Size()
	if rep.Ranks != ranks || rep.StepWindows != calls {
		return fmt.Sprintf("telemetry: %d ranks, %d step windows; want %d, %d", rep.Ranks, rep.StepWindows, ranks, calls)
	}
	barrier := opt.Comm == Synchronous
	for p, want := range map[telemetry.Phase]bool{telemetry.Velocity: true, telemetry.Stress: true, telemetry.Boundary: true,
		telemetry.Output: true, telemetry.Pack: ranks > 1, telemetry.Send: ranks > 1, telemetry.Recv: ranks > 1,
		telemetry.Unpack: ranks > 1, telemetry.Sync: barrier} {
		if spans := rep.Stat(p).Spans; (spans > 0) != want {
			return fmt.Sprintf("telemetry: %d spans of %v under %v on %d ranks", spans, p, opt.Comm, ranks)
		}
	}
	if len(rep.Neighbors) == 0 && ranks > 1 || len(rep.Events) == 0 {
		return fmt.Sprintf("telemetry: %d neighbor counters on %d ranks, %d events", len(rep.Neighbors), ranks, len(rep.Events))
	}
	var trace bytes.Buffer
	if err := rep.WriteChromeTrace(&trace); err != nil || !bytes.Contains(trace.Bytes(), []byte(`"traceEvents"`)) {
		return fmt.Sprintf("telemetry: the trace exports %d bytes without traceEvents (%v)", trace.Len(), err)
	}
	return ""
}

// surfaceDiff holds the surface file to the reference: frame f is vx, vy and
// vz of every surface point after step f·Every. Its stats count each frame
// once, flush every FlushEvery frames and at Finish, and open the file once
// for each aggregator that writes, under the open throttle — except that
// after a rollback the replay writes a frame flushed before it again, so
// the flushes and opens count that I/O too.
func (ref *reference) surfaceDiff(fsys *pfs.FS, opt Options, res *Result, replayed bool) string {
	g, e := opt.Global, opt.Surface.Every
	frames := (opt.Steps + e - 1) / e
	raw := make([]byte, fsys.Size(opt.Surface.Path))
	if err := fsys.ReadAt(opt.Surface.Path, 0, raw); err != nil || len(raw) != frames*g.NX*g.NY*SurfaceRecBytes {
		return fmt.Sprintf("surface file of %d bytes (%v), want %d frames", len(raw), err, frames)
	}
	flushes, writers := (frames+opt.Surface.FlushEvery-1)/opt.Surface.FlushEvery, opt.Surface.Agg.Aggregators
	if st := res.Surface; st.Frames != frames || st.Bytes != len(raw) || !replayed && (st.Flushes != flushes ||
		st.Opens < flushes || st.Opens > writers*flushes || st.MaxConcurrentOpens > agg.DefaultOpenThrottle) {
		return fmt.Sprintf("surface stats: %d frames of %d bytes in %d flushes, %d opens, %d at once; want %d of %d in %d",
			st.Frames, st.Bytes, st.Flushes, st.Opens, st.MaxConcurrentOpens, frames, len(raw), flushes)
	}
	for n, v := range testkit.GetFloat32s(raw) {
		f, i, j, c := n/(3*g.NX*g.NY), n/3%g.NX, n/(3*g.NX)%g.NY, n%3
		if w := ref.at(f*e, fd.FieldNames[c], i, j, 0); math.Float32bits(v) != math.Float32bits(float32(w)) {
			return fmt.Sprintf("surface frame %d: %s(%d,%d) = %g, reference %g", f, fd.FieldNames[c], i, j, v, w)
		}
	}
	return ""
}

// runWorld runs opt as Run does — Prepare, a Stepper a rank — and calls
// before on each rank's goroutine once its Stepper is built and after
// following each Step; hooks report through their own state, never t.Fatal.
// It returns rank 0's Result.
func runWorld(q cvm.Querier, opt Options, before, after func(*mpi.Comm, *Stepper)) (*Result, error) {
	dc, opt, err := Prepare(opt)
	if err != nil {
		return nil, err
	}
	var fail failures
	var result *Result
	mpi.NewWorld(opt.Topo.Size()).Run(func(c *mpi.Comm) {
		st, err := NewStepper(c, q, dc, opt)
		if err != nil {
			fail.add("%v", err)
			return
		}
		if before != nil {
			before(c, st)
		}
		for !st.Done() {
			st.Step()
			if after != nil {
				after(c, st)
			}
		}
		res, err := st.Finish()
		if err != nil {
			fail.add("%v", err)
		}
		if c.Rank() == 0 {
			result = res
		}
	})
	if fail.msg != "" {
		return nil, fmt.Errorf("%s", fail.msg)
	}
	return result, nil
}

// TestIdentity runs every row of the array.
func TestIdentity(t *testing.T) {
	for _, r := range identityArray() {
		t.Run(r.name, func(t *testing.T) {
			if msg := identityResult(r); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// identityView fails if a row that every keep selects fails, or if they
// select none.
func identityView(t *testing.T, keep ...func(identityRow) bool) {
	t.Helper()
	n := 0
	for _, r := range identityArray() {
		if !slices.ContainsFunc(keep, func(k func(identityRow) bool) bool { return !k(r) }) {
			n++
			if msg := identityResult(r); msg != "" {
				t.Errorf("%s: %s", r.name, msg)
			}
		}
	}
	if n == 0 {
		t.Fatal("no row of the identity array varies this test's axes")
	}
}

// The views' row selectors.
func of(names ...string) func(identityRow) bool {
	return func(r identityRow) bool { return slices.Contains(names, r.phys.name) }
}
func multiRank(r identityRow) bool { return r.topo.Size() > 1 }
func faulted(r identityRow) bool   { return r.phys.opt.Fault != nil }
func traced(r identityRow) bool    { return r.tel }
func surfaced(r identityRow) bool  { return r.surface }
func boxed(r identityRow) bool     { return r.box }

// The seed-era identity tests, as views of the array's rows.
func TestFusedBitIdentityMatrix(t *testing.T) { identityView(t, of("filled")) }
func TestDecompositionInvariantAllCommModels(t *testing.T) {
	identityView(t, of("filled", "front"), multiRank)
}
func TestDFRModeMultiRankMatchesSingle(t *testing.T) { identityView(t, faulted, multiRank) }
func TestMPMLBitIdentityMatrix(t *testing.T)         { identityView(t, of("mpml", "fault")) }
func TestFrontCrossesSeamsExactly(t *testing.T)      { identityView(t, of("front"), multiRank) }
func TestCoalescedBitIdenticalAllModels(t *testing.T) {
	identityView(t, func(r identityRow) bool { return r.topo == mpi.NewCart(2, 2, 1) })
}
func TestTelemetryBitIdentity(t *testing.T)          { identityView(t, traced) }
func TestTelemetryTraceExport(t *testing.T)          { identityView(t, traced) }
func TestSurfaceOutputMatchesReceivers(t *testing.T) { identityView(t, surfaced) }
func TestSurfaceOutputInvariants(t *testing.T)       { identityView(t, surfaced) }
func TestActiveBoxMatchesWholeSweeps(t *testing.T)   { identityView(t, boxed) }

// TestSetStepIndexDropsActiveBox: the rows that keep the box roll back from
// step 2 to step 1, where some rank's box is live; the restored state was
// written from outside, so SetStepIndex must fill the box, and the replay
// must reproduce the uninterrupted run.
func TestSetStepIndexDropsActiveBox(t *testing.T) {
	identityView(t, boxed, func(r identityRow) bool { return r.ckpt })
}

// TestDefaultPathMatchesTwoPassOracle: every row's reference is held to the
// two-pass oracle; the rows, by physics row.
func TestDefaultPathMatchesTwoPassOracle(t *testing.T) {
	for _, p := range identityPhysics() {
		t.Run(p.name, func(t *testing.T) { identityView(t, of(p.name)) })
	}
}
