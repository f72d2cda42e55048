package solver

import (
	"encoding/binary"
	"math"

	"repro/internal/agg"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/output"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// ABCKind selects the absorbing boundary treatment (§II.D).
type ABCKind int

const (
	// NoABC leaves rigid outer boundaries (verification runs only).
	NoABC ABCKind = iota
	// SpongeABC uses Cerjan sponge layers — unconditionally stable.
	SpongeABC
	// MPMLABC uses split-field multi-axial PMLs (the M8 production choice).
	MPMLABC
)

// FaultSpec configures DFR (SGSN) mode: a dynamic rupture on the plane
// y = J0*h, with per-node initial stress and friction given on the global
// fault window [I0,I1) x [K0,K1).
type FaultSpec struct {
	J0             int
	I0, I1, K0, K1 int
	Tau0           [][]float64
	SigmaN         [][]float64
	Friction       [][]rupture.Friction
	// RecordEvery > 0 records slip-rate histories every that many steps
	// (for the dynamic-to-kinematic transfer).
	RecordEvery int
}

// Options configures a run.
type Options struct {
	Global grid.Dims
	H      float64
	// Dt is the time step. 0 derives it from the medium at the CFL
	// safety factor; negative and non-finite values are rejected.
	Dt    float64
	Steps int
	Topo  mpi.Cart // zero value: single rank

	// CFL is the safety factor applied to the medium's 4th-order
	// stability bound when Dt is derived automatically. 0 defaults to
	// the historical 0.5; explicit values must lie in (0, 1] (1 is the
	// stability bound itself — the cfl4 and sqrt(3) factors are already
	// part of the bound).
	CFL float64

	// LTS selected multi-rate local time stepping, which is gone: every
	// rank advances by one global step. It is accepted and ignored.
	LTS LTSOptions // bench-only: bench/solve.go:263

	Comm CommModel
	// Variant is bench's: the solver runs the production kernels only, so
	// Prepare accepts fd.Default and fd.Blocked and rejects the §IV.B
	// ablation rungs, which run through fd.UpdateVelocity and UpdateStress.
	Variant fd.Variant // bench-only: bench/solve.go:258
	// Blocking is ignored: a tile is its box. Prepare rejects a negative
	// factor.
	Blocking fd.Blocking // bench-only: bench/solve.go:258
	// TemporalDepth selected temporal tiling, which is gone: Prepare
	// accepts 0 and 1 and rejects anything else.
	TemporalDepth int // bench-only: bench/solve.go:258
	// Threads is ignored: every rank runs on its one goroutine, and
	// Prepare rejects only a negative value. Cores per rank are
	// awp.Scenario.Threads, which awp.Topology folds into the rank count.
	Threads int // bench-only: bench/solve.go:257

	ABC ABCKind
	// pmlWidth is the M-PML zone width in cells, boundary.DefaultPMLWidth
	// when 0. This package's tests set narrower zones to fit small grids.
	pmlWidth    int
	SpongeWidth int
	FreeSurface bool

	Attenuation bool

	Sources []source.SampledSource
	Fault   *FaultSpec

	// Receivers are the global (i,j,k) seismogram locations, sampled every
	// step; Prepare rejects one outside Global.
	Receivers [][3]int
	TrackPGV  bool // accumulate surface peak velocity maps

	// Surface streams decimated free-surface velocity frames to a single
	// file through the two-phase aggregated I/O layer (internal/agg) —
	// the production M8 output path. nil disables it. Every rank extracts
	// frame f after step f·Every, since each flush is a collective.
	Surface *SurfaceOptions

	// Telemetry enables the per-rank instrumentation subsystem
	// (internal/telemetry): span timers per phase, per-neighbor message
	// counters, optional ring-buffered event traces, and the cross-rank
	// aggregated report in Result.Telemetry. nil (the default) disables
	// every probe — hot paths see only nil checks, the step schedule is
	// unchanged, and results are bit-identical either way.
	Telemetry *telemetry.Options
}

// LTSOptions configured multi-rate local time stepping, which is gone (DESIGN.md
// §12); nothing reads it.
type LTSOptions struct {
	WorkBalance bool // bench-only: bench/solve.go:263
}

// Result collects rank-0 outputs of a run.
type Result struct {
	Steps int
	Dt    float64

	// Seismograms[r][n] is the velocity vector at receiver r, sample n.
	Seismograms [][][3]float32

	// Surface peak-velocity maps (global NX x NY, row-major y-fastest...
	// indexed [j*NX+i]); nil unless TrackPGV.
	PGVH []float64 // peak root-sum-square horizontal velocity
	PGVX []float64 // peak |vx|
	PGVY []float64 // peak |vy|

	// Fault outputs (DFR mode): global window arrays [K1-K0][I1-I0].
	FaultSlip     [][]float64
	FaultPeakRate [][]float64
	FaultRupTime  [][]float64
	FaultStats    rupture.Stats
	MomentRate    []float64 // per step, N*m/s

	// Slip-rate histories for the kinematic transfer: series[node] with
	// node coordinates in SlipNodes; populated when Fault.RecordEvery > 0.
	SlipNodes  [][3]int
	SlipSeries [][]float32
	SlipDt     float64

	// ActiveShare is the cells the velocity and stress sweeps covered over
	// the cells the ranks own, summed over ranks and steps: below 1 for
	// as long as some rank's active box had not filled its subgrid (DESIGN.md
	// §7), exactly 1 for the steps after every rank's had.
	ActiveShare float64

	// Telemetry is the aggregated per-phase instrumentation report; nil
	// unless Options.Telemetry was set.
	Telemetry *telemetry.Report

	// Surface is the aggregated surface-output accounting (frames,
	// flushes, opens, virtual phase cost, per-stripe checksums); nil
	// unless Options.Surface was set.
	Surface *output.DistStats
}

// SurfaceOptions configures the aggregated surface-velocity output path.
type SurfaceOptions struct {
	FS   *pfs.FS
	Path string
	// Every is the step decimation: frame f holds the state after step
	// f·Every. <= 0 defaults to 1.
	Every int
	// FlushEvery is how many buffered frames trigger one collective
	// aggregated flush. <= 0 defaults to 1 (the pathological
	// per-step-flush mode the paper's aggregation removed).
	FlushEvery int
	// Agg tunes the aggregated collective write (writer count, open
	// throttle, tag).
	Agg agg.Config
}

// SurfaceRecBytes is the per-point record of a surface frame: vx, vy, vz
// as float32.
const SurfaceRecBytes = 12

// Run executes the simulation and returns the rank-0 result.
func Run(q cvm.Querier, opt Options) (*Result, error) {
	dc, opt, err := Prepare(opt)
	if err != nil {
		return nil, err
	}

	var result *Result
	var runErr error
	world := mpi.NewWorld(opt.Topo.Size())
	world.Run(func(c *mpi.Comm) {
		s, err := NewStepper(c, q, dc, opt)
		var r *Result
		if err == nil {
			for !s.Done() {
				s.Step()
			}
			r, err = s.Finish()
		}
		if c.Rank() == 0 {
			result, runErr = r, err
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return result, nil
}

type ownedReceiver struct {
	idx        int
	li, lj, lk int
	series     [][3]float32
}

// ownedFaces reduces the ABC face set to the physical faces of this rank,
// excluding the free surface.
func ownedFaces(dc decomp.Decomp, rank int, opt Options) boundary.FaceSet {
	bf := dc.BoundaryFaces(rank)
	fs := boundary.FaceSet{
		XLo: bf[grid.X][0], XHi: bf[grid.X][1],
		YLo: bf[grid.Y][0], YHi: bf[grid.Y][1],
		ZLo: bf[grid.Z][0] && !opt.FreeSurface,
		ZHi: bf[grid.Z][1],
	}
	return fs
}

func (s *Stepper) setupFault() error {
	f := s.opt.Fault
	// Clip the global window to this rank's x/z extent.
	i0 := max(f.I0, s.sub.OffX)
	i1 := min(f.I1, s.sub.OffX+s.sub.Local.NX)
	k0 := max(f.K0, s.sub.OffZ)
	k1 := min(f.K1, s.sub.OffZ+s.sub.Local.NZ)
	if i1 <= i0 || k1 <= k0 {
		return nil // no fault nodes on this rank
	}
	nk, ni := k1-k0, i1-i0
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := 0; k < nk; k++ {
		gk := k0 + k - f.K0
		tau[k] = f.Tau0[gk][i0-f.I0 : i0-f.I0+ni]
		sn[k] = f.SigmaN[gk][i0-f.I0 : i0-f.I0+ni]
		fr[k] = f.Friction[gk][i0-f.I0 : i0-f.I0+ni]
	}
	cfg := rupture.Config{
		J0: f.J0 - s.sub.OffY,
		I0: i0 - s.sub.OffX, I1: i1 - s.sub.OffX,
		K0: k0 - s.sub.OffZ, K1: k1 - s.sub.OffZ,
		Tau0: tau, SigmaN: sn, Friction: fr,
	}
	ft, err := rupture.NewFault(cfg, s.sub.Local, s.med.H)
	if err != nil {
		return err
	}
	s.fault = ft
	// The window radiates from step 0: the split-node passes write vx on the
	// plane and sxy on the two rows either side of it.
	s.box.join(fd.Box{I0: cfg.I0, I1: cfg.I1, J0: cfg.J0 - 2, J1: cfg.J0 + 2, K0: cfg.K0, K1: cfg.K1})
	if f.RecordEvery > 0 {
		s.recorder = rupture.NewRecorder(ft)
	}
	return nil
}

// tile is one unit of a phase's work queue: a j/k tile of the bulk kernels'
// box (zone nil), or the part b of a PML zone.
type tile struct {
	b    fd.Box
	zone *boundary.PML
}

// queue is one tile queue of a phase: run(i) executes the i-th of n tiles.
type queue struct {
	n   int
	run func(i int)
}

// tilePlan is the rank's decomposition of a step's kernel work, built once
// per Stepper so that a step tiles and allocates nothing; every tile body runs
// on the tile's intersection with the rank's active box. A tile is a box of
// the plan: compBox or, under AsyncOverlap, its halo-adjacent strips and the
// inner box, and each M-PML zone.
// Each phase drains its pre queue — every tile but, under AsyncOverlap, the
// inner box — before its halo post, and under AsyncOverlap its inner queue
// while the messages fly. Interior
// and zone tiles share a queue: BuildPML's zones and compBox partition the
// subgrid, and within a phase every cell reads one field family and writes
// the other (plus its zone's splits) on itself only, so tiles are
// independent and any schedule stores the same bits as the serial sweep.
// The sponge has no pass of its own: the stresses are damped inside their
// tiles (stressTile), the velocities as the next step's tiles load them
// (velocityTile).
type tilePlan struct {
	velPre, velInner       queue
	stressPre, stressInner queue
}

// buildTilePlan fixes the zones' coefficient rows for dt, so that no tile
// builds them while another reads them, and binds the tiles of cutTiles to
// the phases' bodies. A zone's split fields live on its rank and never cross
// a seam, so a zone is a tile like any other. It needs s.atten and s.fault
// set: they decide the tile bodies. In DFR mode the fault hooks onto every tile:
// the split-node update ends each velocity tile, the stress correction each
// stress tile's elastic pass, on the tile's own fault nodes and correction
// rows — per-cell work that reads only what its phase does not write — so the
// fault runs wherever its cells' tiles run, before the post or after it. So
// do the sources: every stress tile ends by adding the sources whose node it
// holds (stressTile), and damps its stresses with them — in one tapered sweep
// where it can (taperedSweep), decided here once a tile — and every velocity
// tile damps the velocities it loads (velocityTile).
func (s *Stepper) buildTilePlan() {
	for _, z := range s.zones {
		z.Prepare(s.dt)
	}
	pre, inner := s.cutTiles()

	var velHook, stressHook tileHook
	velZone, stressZone := zoneBody((*boundary.PML).UpdateVelocityBox), zoneBody((*boundary.PML).UpdateStressBox)
	if f := s.fault; f != nil {
		velHook, stressHook = f.UpdateVelocity, f.CorrectStress
		velZone, stressZone = velHook.after(velZone), stressHook.after(stressZone)
	}
	if s.srcs.Count() > 0 {
		stressZone = tileHook(s.addSources).after(stressZone)
	}
	velocity := s.velocityTile(velHook)
	sweep, split := s.stressTile(stressHook)
	vel := func(fd.Box) func(fd.Box) { return velocity }
	stress := func(b fd.Box) func(fd.Box) {
		if s.taperedSweep(b) {
			return sweep
		}
		return split
	}
	// mk binds tiles to a phase's bodies, each cut to the active box: a tile
	// outside it returns at once, and the cells of one inside count as swept.
	mk := func(tiles []tile, interior func(fd.Box) func(fd.Box), zone zoneBody) queue {
		bodies := make([]func(fd.Box), len(tiles))
		for i, tl := range tiles {
			if tl.zone == nil {
				bodies[i] = interior(tl.b)
			}
		}
		return queue{len(tiles), func(i int) {
			b := tiles[i].b.Intersect(s.box.Box)
			if b.Empty() {
				return
			}
			s.swept += int64(b.Cells())
			z := tiles[i].zone
			if z == nil {
				bodies[i](b)
				return
			}
			sp := s.tel.Span(telemetry.Boundary)
			zone(z, s.st, s.med, s.dt, b)
			sp.End()
		}}
	}
	p := &s.plan
	p.velPre, p.velInner = mk(pre, vel, velZone), mk(inner, vel, nil)
	p.stressPre, p.stressInner = mk(pre, stress, stressZone), mk(inner, stress, nil)
}

// cutTiles lists the plan's tiles: compBox (under AsyncOverlap, its
// halo-adjacent strips and, for the inner queue, the inner box) and the zones,
// each box one tile and an empty box none.
func (s *Stepper) cutTiles() (pre, inner []tile) {
	add := func(dst []tile, b fd.Box, z *boundary.PML) []tile {
		if b.Empty() {
			return dst
		}
		return append(dst, tile{b, z})
	}
	if s.opt.Comm == AsyncOverlap {
		strips, innerBox := boundaryStrips(s.sub.Local, s.nbrMask, grid.Ghost)
		for _, strip := range strips {
			pre = add(pre, strip.Intersect(s.compBox), nil)
		}
		inner = add(nil, innerBox.Intersect(s.compBox), nil)
	} else {
		pre = add(nil, s.compBox, nil)
	}
	for _, z := range s.zones {
		pre = add(pre, z.Zone, z)
	}
	return pre, inner
}

// drain runs the queue's tiles in order.
func (q queue) drain() {
	for i := range q.n {
		q.run(i)
	}
}

// advance performs the rank's next step — the one step program of every comm
// model; its telemetry spans are the Eq. 7 terms. Each phase grows the active
// box by what its sweep can reach, drains its pre queue, posts its halo
// messages, drains its inner queue while they fly and finishes the exchange.
// Without AsyncOverlap the inner queues are empty, so post and finish are
// adjacent. The rank's one goroutine drains every queue.
func (s *Stepper) advance() {
	plan := &s.plan

	// --- Velocity phase ---
	s.steps++
	s.box.grow()
	plan.velPre.drain()
	s.vel.post()
	plan.velInner.drain()
	s.vel.finish()
	s.syncBarrier()
	if s.fs != nil {
		sp := s.tel.Span(telemetry.Boundary)
		s.fs.ApplyVelocity(s.st, s.med)
		sp.End()
	}

	// --- Stress phase ---
	// A stress tile is its cells' whole stress step: elastic update, fault
	// correction, attenuation, the sources on its cells and the sponge
	// (stressTile), so a strip's cells are final when the post packs them and
	// a neighbour's ghost copies arrive damped. The sources' rates are
	// evaluated once, here, and the nodes gone live join the active box
	// before any tile is clipped to it. The velocities leave the step
	// undamped: the next step's velocity tiles damp them as they load them,
	// and the step-end readers read them times the same factor (sample,
	// surfaceTaper).
	s.box.grow()
	s.box.join(s.srcs.Rates(s.dt, float64(s.step+1)*s.dt))
	plan.stressPre.drain()
	s.stress.post()
	plan.stressInner.drain()
	s.stress.finish()
	s.syncBarrier()
	if s.fs != nil {
		sp := s.tel.Span(telemetry.Boundary)
		s.fs.ApplyStress(s.st)
		sp.End()
	}
}

// syncBarrier is the Synchronous model's global barrier after a phase's
// exchange.
func (s *Stepper) syncBarrier() {
	if s.opt.Comm != Synchronous {
		return
	}
	sp := s.tel.Span(telemetry.Sync)
	s.comm.Barrier()
	sp.End()
}

// tileHook is a cell-local pass over one box that ends a tile body:
// rupture.Fault's UpdateVelocity or CorrectStress, or addSources.
type tileHook func(*fd.State, *medium.Medium, float64, fd.Box)

// zoneBody is an M-PML zone's pass over the part b of its zone.
type zoneBody func(z *boundary.PML, s *fd.State, m *medium.Medium, dt float64, b fd.Box)

// after returns the zone body followed on the same box by the hook.
func (h tileHook) after(zone zoneBody) zoneBody {
	return func(z *boundary.PML, s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
		zone(z, s, m, dt, b)
		h(s, m, dt, b)
	}
}

// velocityTile returns the velocity tile body: the production kernel, each
// velocity multiplied by the taper as the kernel loads it — the damping the
// sponge's step before left pending, or nothing under the zero taper
// (fd.UpdateVelocityTapered) — then in DFR mode the fault's split-node
// update, timed whole under Velocity, so the zone tiles of the same queue
// (timed as Boundary) are not counted as kernel time. A velocity's update
// reads the velocity at its own cell only, and nothing reads a velocity
// between the end of one step's stress phase and this, so the tile stores the
// bits of the sponge's pass at step end followed by the update.
func (s *Stepper) velocityTile(hook tileHook) func(fd.Box) {
	return func(b fd.Box) {
		sp := s.tel.Span(telemetry.Velocity)
		fd.UpdateVelocityTapered(s.st, s.med, s.dt, b, s.taper)
		if hook != nil {
			hook(s.st, s.med, s.dt, b)
		}
		sp.End()
	}
}

// stressTile returns the two stress tile bodies, each a tile's whole stress
// step in the order of the passes it replaces — update, sources, damping —
// timed under Stress. sweep is one production walker call that multiplies
// each stress by the taper before storing it (fd.UpdateStressTapered, or
// attenuation's FusedStressTapered with attenuation on: the memory-variable
// update rides in the elastic i-loop, one read/modify/write of the six
// stresses a cell, bit-identical to the pair of passes it replaces), then the
// sources whose node the tile holds: the bits of that order wherever each
// such node has a factor of exactly 1, since (u·1)+s = (u+s)·1. split keeps
// the passes apart for the tiles where something must run between update and
// damping (taperedSweep decides per tile): the elastic update, the fault's
// correction (hook) — which must see the purely elastic stress — and
// attenuation as a pass of its own (Model.Apply, timed under Attenuation
// without a sponge), or FusedStress without a hook; then the sources, and with
// a sponge Sponge.DampBox, a k-plane at a time so that the plane is still in
// cache.
func (s *Stepper) stressTile(hook tileHook) (sweep, split func(fd.Box)) {
	src := s.srcs.Count() > 0
	sweep = func(b fd.Box) {
		sp := s.tel.Span(telemetry.Stress)
		if s.atten != nil {
			s.atten.FusedStressTapered(s.st, s.med, s.dt, b, s.taper)
		} else {
			fd.UpdateStressTapered(s.st, s.med, s.dt, b, s.taper)
		}
		if src {
			s.srcs.AddBox(s.st, b)
		}
		sp.End()
	}
	// passes runs the split body on p, its spans on tel.
	stresses := s.st.Stresses()
	passes := func(tel *telemetry.Recorder, p fd.Box) {
		sp := tel.Span(telemetry.Stress)
		if s.atten != nil && hook == nil {
			s.atten.FusedStress(s.st, s.med, s.dt, p)
		} else {
			fd.UpdateStressTapered(s.st, s.med, s.dt, p, fd.Taper{})
			if hook != nil {
				hook(s.st, s.med, s.dt, p)
			}
			if s.atten != nil {
				sp.End()
				sp = tel.Span(telemetry.Attenuation)
				s.atten.Apply(s.st, s.med, s.dt, p)
			}
		}
		sp.End()
		if src {
			s.srcs.AddBox(s.st, p)
		}
		if s.sponge != nil {
			s.sponge.DampBox(stresses, p)
		}
	}
	if s.sponge == nil {
		return sweep, func(b fd.Box) { passes(s.tel, b) }
	}
	return sweep, func(b fd.Box) {
		sp := s.tel.Span(telemetry.Stress)
		for k := b.K0; k < b.K1; k++ {
			p := b
			p.K0, p.K1 = k, k+1
			passes(nil, p)
		}
		sp.End()
	}
}

// taperedSweep reports whether stress tile b runs as one tapered sweep: it
// has no fault hook, and the taper is exactly 1 at every source node in b,
// so that b's sources may be added after the sweep — every tile without a
// sponge, and without a fault.
func (s *Stepper) taperedSweep(b fd.Box) bool {
	if s.fault != nil {
		return false
	}
	if s.taper.X == nil {
		return true
	}
	for n := range s.srcs.Count() {
		i, j, k := s.srcs.Node(n)
		if b.Contains(fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1}) && s.taper.At(i, j, k) != 1 {
			return false
		}
	}
	return true
}

// addSources is the sources' tileHook: it adds the step's increments of the
// sources whose node lies in b (source.Set.AddBox).
func (s *Stepper) addSources(st *fd.State, _ *medium.Medium, _ float64, b fd.Box) {
	s.srcs.AddBox(st, b)
}

// surfaceTaper returns the taper's factors of surface row j — fx[i] column
// i's, fyz the row's fy·fz — which the next step's velocity tiles multiply the
// row's velocities by as they load them; fx is nil under the zero taper. A
// reader of the velocities at step end (trackPGV, packSurfaceFrame, and the
// receivers through sample) reads v·(fx[i]·fyz), the bits the sponge's pass
// stored there before the taper rode the velocity tiles.
func (s *Stepper) surfaceTaper(j int) (fx []float32, fyz float32) {
	tp, g := s.taper, grid.Ghost
	if tp.X == nil {
		return nil, 1
	}
	return tp.X[g:], tp.Y[j+g] * tp.Z[g]
}

// sample returns the step's damped velocities at local cell (i, j, k), as
// surfaceTaper's readers read them.
func (s *Stepper) sample(i, j, k int) [3]float32 {
	v := [3]float32{s.st.VX.At(i, j, k), s.st.VY.At(i, j, k), s.st.VZ.At(i, j, k)}
	if s.taper.X != nil {
		a := s.taper.At(i, j, k)
		v = [3]float32{v[0] * a, v[1] * a, v[2] * a}
	}
	return v
}

// trackPGV folds the step's damped surface velocities into the peak maps, a
// row at a time. Outside the active box the velocities are zero and fold to
// what the maps hold.
func (s *Stepper) trackPGV() {
	if s.pgvh == nil {
		return
	}
	b := fd.Box{I1: s.sub.Local.NX, J1: s.sub.Local.NY, K1: 1}.Intersect(s.box.Box)
	if b.Empty() {
		return
	}
	for j := b.J0; j < b.J1; j++ {
		s.trackPGVRow(j, b.I0, b.I1)
	}
}

// trackPGVRow folds columns [i0, i1) of surface row j through contiguous row
// slices instead of per-point bounds-checked At() calls. The horizontal map
// keeps vx²+vy² in float64: the squares of float32 values are exact there and
// the sum rounds once, so the fold stores the same bits with or without a
// fused multiply-add, and report takes one square root a cell.
func (s *Stepper) trackPGVRow(j, i0, i1 int) {
	n := i1 - i0
	base := s.st.VX.Idx(i0, j, 0) // identical layout across components
	vxr := s.st.VX.Data()[base : base+n]
	vyr := s.st.VY.Data()[base : base+n]
	o := j*s.sub.Local.NX + i0
	ph := s.pgvh[o : o+n]
	px := s.pgvx[o : o+n]
	py := s.pgvy[o : o+n]
	fx, fyz := s.surfaceTaper(j)
	if fx != nil {
		fx = fx[i0:i1]
	}
	for i := 0; i < n; i++ {
		vx, vy := vxr[i], vyr[i]
		if fx != nil {
			a := fx[i] * fyz
			vx, vy = vx*a, vy*a
		}
		x, y := float64(vx), float64(vy)
		if h := x*x + y*y; h > ph[i] {
			ph[i] = h
		}
		if a := abs32(vx); a > px[i] {
			px[i] = a
		}
		if a := abs32(vy); a > py[i] {
			py[i] = a
		}
	}
}

// abs32 is |v|, exactly: v with its sign bit cleared.
func abs32(v float32) float32 { return math.Float32frombits(math.Float32bits(v) &^ (1 << 31)) }

// packSurfaceFrame writes this rank's free-surface damped velocity rectangle
// into dst, its slot of one output frame: vx, vy, vz per point as
// little-endian float32, x fastest then y, matching the in-frame file view
// built in NewStepper. dst is empty on ranks that own no surface points.
func (s *Stepper) packSurfaceFrame(dst []byte) {
	if len(dst) == 0 {
		return
	}
	nx := s.sub.Local.NX
	for j := range s.sub.Local.NY {
		base := s.st.VX.Idx(0, j, 0)
		vxr := s.st.VX.Data()[base : base+nx]
		vyr := s.st.VY.Data()[base : base+nx]
		vzr := s.st.VZ.Data()[base : base+nx]
		fx, fyz := s.surfaceTaper(j)
		row := dst[j*nx*SurfaceRecBytes:][:nx*SurfaceRecBytes]
		for i := range nx {
			vx, vy, vz := vxr[i], vyr[i], vzr[i]
			if fx != nil {
				a := fx[i] * fyz
				vx, vy, vz = vx*a, vy*a, vz*a
			}
			rec := row[i*SurfaceRecBytes:]
			binary.LittleEndian.PutUint32(rec, math.Float32bits(vx))
			binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(vy))
			binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(vz))
		}
	}
}
