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
	// Variant is left unset by every caller but tests and benchmarks: zero
	// runs fd.Production, any other value selects a rung of the §IV.B
	// ablation. bench/ compiles against the field.
	Variant fd.Variant
	// Blocking, when non-zero, overrides the derived tile shape (tileShape); it
	// goes when bench's traced redrive, its one setter outside tests, does.
	Blocking fd.Blocking
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
	PGVZ []float64 // peak |vz|

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
// on the tile's intersection with the rank's active box.
// Each phase drains its pre queue — every tile of compBox and of the zones
// or, under AsyncOverlap, of compBox's halo-adjacent strips and of the zones
// — before its halo post, and under AsyncOverlap its inner queue, the tiles
// of compBox less the strips, while the messages fly. Interior
// and zone tiles share a queue: BuildPML's zones and compBox partition the
// subgrid, and within a phase every cell reads one field family and writes
// the other (plus its zone's splits) on itself only, so tiles are
// independent and any schedule stores the same bits as the serial sweep.
//
// With a sponge, velDamp is the sponge's velocity pass: the owned k-planes of
// the subgrid, cut to the active box, each damping the three velocities (the
// stresses are damped inside their tiles), and planeLoop marks, over the tiles
// of stressPre then stressInner, those whose stress body runs a k-plane at a
// time rather than as one tapered sweep (stressTile); a clipped tile runs its
// whole tile's body.
type tilePlan struct {
	velPre, velInner       queue
	stressPre, stressInner queue
	velDamp                queue
	planeLoop              []bool
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
// holds (stressTile), and with a sponge damps its stresses after them — in
// one tapered sweep where it can (planeLoop), decided here once a tile.
func (s *Stepper) buildTilePlan() {
	for _, z := range s.zones {
		z.Prepare(s.dt)
	}
	pre, inner, _ := s.cutTiles()

	var velHook, stressHook tileHook
	velZone, stressZone := zoneBody((*boundary.PML).UpdateVelocityBox), zoneBody((*boundary.PML).UpdateStressBox)
	if f := s.fault; f != nil {
		velHook, stressHook = f.UpdateVelocity, f.CorrectStress
		velZone, stressZone = velHook.after(velZone), stressHook.after(stressZone)
	}
	if s.srcs.Count() > 0 {
		stressZone = tileHook(s.addSources).after(stressZone)
	}
	velocity := s.kernelTile(s.tel, telemetry.Velocity, fd.UpdateVelocity, velHook)
	planes, tapered := s.stressTile(stressHook)
	// stress picks each stress tile's body, noting the plane loops.
	var loops []bool
	stress := func(tl tile) func(fd.Box) {
		loop := tapered == nil || !s.unitAtSources(tl.b)
		loops = append(loops, loop)
		if loop {
			return planes
		}
		return tapered
	}
	vel := func(tile) func(fd.Box) { return velocity }
	// mk binds tiles to a phase's bodies, each cut to the active box: a tile
	// outside it returns at once, and the cells of one inside count as swept.
	mk := func(tiles []tile, interior func(tile) func(fd.Box), zone zoneBody) queue {
		bodies := make([]func(fd.Box), len(tiles))
		for i, tl := range tiles {
			if tl.zone == nil {
				bodies[i] = interior(tl)
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
	if s.sponge != nil {
		p.planeLoop = loops
		owned := fd.FullBox(s.sub.Local)
		p.velDamp = queue{owned.K1, func(k int) {
			b := owned
			b.K0, b.K1 = k, k+1
			s.sponge.DampBox(s.velocities, b.Intersect(s.box.Box))
		}}
	}
}

// tileShape is the j/k shape box is cut into: the whole box, one tile,
// unless opt.Blocking sets the §IV.B cache block (EXPERIMENTS.md, "Tile
// shapes from the box and the pool").
func tileShape(opt Options, box fd.Box) fd.Blocking {
	if opt.Blocking != (fd.Blocking{}) {
		return opt.Blocking
	}
	return fd.Blocking{JBlock: max(box.J1-box.J0, 1), KBlock: max(box.K1-box.K0, 1)}
}

// shapeOf is the blocking that sweeps tile b as one block.
func shapeOf(b fd.Box) fd.Blocking { return fd.Blocking{JBlock: b.J1 - b.J0, KBlock: b.K1 - b.K0} }

// cutTiles cuts compBox (under AsyncOverlap, its halo-adjacent strips and,
// for the inner queue, innerBox) and the zones into tiles of their tileShape.
func (s *Stepper) cutTiles() (pre, inner []tile, innerBox fd.Box) {
	add := func(dst []tile, box fd.Box, z *boundary.PML) []tile {
		for _, b := range fd.Tiles(box, tileShape(s.opt, box)) {
			dst = append(dst, tile{b, z})
		}
		return dst
	}
	if s.opt.Comm == AsyncOverlap {
		var strips []fd.Box
		strips, innerBox = boundaryStrips(s.sub.Local, s.nbrMask, grid.Ghost)
		for _, strip := range strips {
			pre = add(pre, strip.Intersect(s.compBox), nil)
		}
		innerBox = innerBox.Intersect(s.compBox)
		inner = add(nil, innerBox, nil)
	} else {
		pre = add(nil, s.compBox, nil)
	}
	for _, z := range s.zones {
		pre = add(pre, z.Zone, z)
	}
	return pre, inner, innerBox
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
// adjacent but for the sponge's velocity pass. The rank's one goroutine drains
// every queue.
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
	// before any tile is clipped to it. The velocities are damped by one
	// queue after the inner tiles, the last that read them: under
	// AsyncOverlap while the messages fly.
	s.box.grow()
	s.box.join(s.srcs.Rates(s.dt, float64(s.step+1)*s.dt))
	plan.stressPre.drain()
	s.stress.post()
	plan.stressInner.drain()
	if plan.velDamp.n > 0 {
		sp := s.tel.Span(telemetry.Boundary)
		plan.velDamp.drain()
		sp.End()
	}
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

// kernelTile returns the tile body that runs an fd kernel on the tile and,
// in DFR mode, the fault's hook on the same box, both timed on tel under
// phase from inside the tile, so the zone tiles of the same queue (timed as
// Boundary) are not counted as kernel time. A nil tel leaves the timing to
// the caller.
func (s *Stepper) kernelTile(tel *telemetry.Recorder, phase telemetry.Phase,
	kernel func(*fd.State, *medium.Medium, float64, fd.Box, fd.Variant, fd.Blocking), hook tileHook) func(fd.Box) {
	if hook != nil {
		return func(b fd.Box) {
			sp := tel.Span(phase)
			kernel(s.st, s.med, s.dt, b, s.opt.Variant, shapeOf(b))
			hook(s.st, s.med, s.dt, b)
			sp.End()
		}
	}
	return func(b fd.Box) {
		sp := tel.Span(phase)
		kernel(s.st, s.med, s.dt, b, s.opt.Variant, shapeOf(b))
		sp.End()
	}
}

// stressTile returns the stress tile bodies: stressBody, then the sources
// whose node the tile holds, then, with a sponge, the damping of the six
// stresses — per cell the order of the passes they replace: update, source,
// damping. With a sponge, tapered is the tile in one production walker call
// that multiplies each stress by the sponge's factor before storing it
// (fd.UpdateStressTapered, attenuation's FusedStressTapered), then the
// sources: the bits of that order wherever each source node in the tile has
// a factor of exactly 1, since (u·1)+s = (u+s)·1. planes runs the tile a
// k-plane at a time — the update on the plane, the plane's sources and
// Sponge.DampBox while the plane is in cache — for the tiles where something
// must run between update and damping: a source node the taper scales
// (buildTilePlan decides per tile), and every tile when tapered is nil —
// under a fault hook, whose correction and attenuation pass come between, and
// under an elastic body no walker runs (Naive, Precomp). Both are timed whole
// under Stress. Without a sponge planes is the plain body and tapered nil.
func (s *Stepper) stressTile(hook tileHook) (planes, tapered func(fd.Box)) {
	src := s.srcs.Count() > 0
	if s.sponge != nil {
		update := s.stressBody(nil, hook)
		planes = func(b fd.Box) {
			sp := s.tel.Span(telemetry.Stress)
			for k := b.K0; k < b.K1; k++ {
				p := b
				p.K0, p.K1 = k, k+1
				update(p)
				if src {
					s.srcs.AddBox(s.st, p)
				}
				s.sponge.DampBox(s.stresses, p)
			}
			sp.End()
		}
		tp := s.sponge.Taper()
		var sweep func(fd.Box)
		switch {
		case hook != nil: // the correction, and attenuation, come between
		case s.atten == nil && s.opt.Variant == fd.Blocked:
			sweep = func(b fd.Box) { fd.UpdateStressTapered(s.st, s.med, s.dt, b, tp) }
		case s.atten != nil && s.opt.Variant.Precomputed():
			sweep = func(b fd.Box) { s.atten.FusedStressTapered(s.st, s.med, s.dt, b, tp) }
		}
		if sweep != nil {
			tapered = func(b fd.Box) {
				sp := s.tel.Span(telemetry.Stress)
				sweep(b)
				if src {
					s.srcs.AddBox(s.st, b)
				}
				sp.End()
			}
		}
		return planes, tapered
	}
	body := s.stressBody(s.tel, hook)
	if src {
		return func(b fd.Box) {
			body(b)
			s.srcs.AddBox(s.st, b)
		}, nil
	}
	return body, nil
}

// unitAtSources reports whether the sponge's factor is exactly 1 at every
// source node in b, so that b's sources may be added after its tapered
// sweep.
func (s *Stepper) unitAtSources(b fd.Box) bool {
	tp := s.sponge.Taper()
	for n := range s.srcs.Count() {
		i, j, k := s.srcs.Node(n)
		if b.Contains(fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1}) && tp.At(i, j, k) != 1 {
			return false
		}
	}
	return true
}

// stressBody is a stress tile's update. With attenuation on, every variant
// that reads the precomputed coefficients runs attenuation.FusedStress: the
// memory-variable update rides in the elastic i-loop, one read/modify/write
// of the six stress fields per cell instead of two, bit-identical to the pair
// of passes it replaces. Its whole time lands in the Stress span — there is no
// separate attenuation pass to time. Two bodies keep the pair: Naive, the
// §IV.B ablation of the in-loop coefficient arithmetic FusedStress does not
// have, and DFR mode, whose stress correction (hook) must see the purely
// elastic stress, so attenuation runs after it on the same tile. Each pass is
// timed on tel under its own span (none with a nil tel).
func (s *Stepper) stressBody(tel *telemetry.Recorder, hook tileHook) func(fd.Box) {
	elastic := s.kernelTile(tel, telemetry.Stress, fd.UpdateStress, hook)
	switch {
	case s.atten == nil:
		return elastic
	case hook == nil && s.opt.Variant.Precomputed():
		return func(b fd.Box) {
			sp := tel.Span(telemetry.Stress)
			s.atten.FusedStress(s.st, s.med, s.dt, b)
			sp.End()
		}
	}
	return func(b fd.Box) {
		elastic(b)
		sp := tel.Span(telemetry.Attenuation)
		s.atten.Apply(s.st, s.med, s.dt, b)
		sp.End()
	}
}

// addSources is the sources' tileHook: it adds the step's increments of the
// sources whose node lies in b (source.Set.AddBox).
func (s *Stepper) addSources(st *fd.State, _ *medium.Medium, _ float64, b fd.Box) {
	s.srcs.AddBox(st, b)
}

// trackPGV folds the current surface velocities into the peak maps, a row
// at a time. Outside the active box the velocities are zero and fold to
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
// slices instead of per-point bounds-checked At() calls.
func (s *Stepper) trackPGVRow(j, i0, i1 int) {
	n := i1 - i0
	base := s.st.VX.Idx(i0, j, 0) // identical layout across components
	vxr := s.st.VX.Data()[base : base+n]
	vyr := s.st.VY.Data()[base : base+n]
	vzr := s.st.VZ.Data()[base : base+n]
	o := j*s.sub.Local.NX + i0
	ph := s.pgvh[o : o+n]
	px := s.pgvx[o : o+n]
	py := s.pgvy[o : o+n]
	pz := s.pgvz[o : o+n]
	for i := 0; i < n; i++ {
		vx, vy, vz := float64(vxr[i]), float64(vyr[i]), float64(vzr[i])
		if h := math.Hypot(vx, vy); h > ph[i] {
			ph[i] = h
		}
		if a := math.Abs(vx); a > px[i] {
			px[i] = a
		}
		if a := math.Abs(vy); a > py[i] {
			py[i] = a
		}
		if a := math.Abs(vz); a > pz[i] {
			pz[i] = a
		}
	}
}

// packSurfaceFrame writes this rank's free-surface velocity rectangle into
// dst, its slot of one output frame: vx, vy, vz per point as little-endian
// float32, x fastest then y, matching the in-frame file view built in
// NewStepper. dst is empty on ranks that own no surface points.
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
		row := dst[j*nx*SurfaceRecBytes:][:nx*SurfaceRecBytes]
		for i := range nx {
			rec := row[i*SurfaceRecBytes:]
			binary.LittleEndian.PutUint32(rec, math.Float32bits(vxr[i]))
			binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(vyr[i]))
			binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(vzr[i]))
		}
	}
}
