package solver

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/sched"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/mpiio"
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
	// safety factor; explicitly negative values are rejected.
	Dt    float64
	Steps int
	Topo  mpi.Cart // zero value: single rank

	// CFL is the safety factor applied to the medium's 4th-order
	// stability bound when Dt is derived automatically. 0 defaults to
	// the historical 0.5; explicit values must lie in (0, 1] (1 is the
	// stability bound itself — the cfl4 and sqrt(3) factors are already
	// part of the bound). LTS rate assignment reuses the same factor for
	// per-rank stable steps.
	CFL float64

	// LTS configures multi-rate local time stepping (see LTSOptions).
	// Mutually exclusive with DFR mode and Surface output.
	LTS LTSOptions

	Comm CommModel
	// Variant is left unset by every caller but tests and benchmarks: zero
	// runs fd.Production, any other value selects a rung of the §IV.B
	// ablation. bench/ compiles against the field.
	Variant  fd.Variant
	Blocking fd.Blocking
	// TemporalDepth selected temporal tiling, which is gone. bench/ still
	// sets it to 1, so Prepare accepts 0 and 1 and rejects anything else.
	TemporalDepth int
	// Threads sets the per-rank worker-pool size of the hybrid MPI/OpenMP
	// mode (§IV.D): a persistent pool of Threads goroutines executes the
	// kernel loops as a queue of j/k tiles (shape Blocking). 0 defaults to
	// 1 (pure MPI); negative values are rejected by Run. Every comm model
	// honors Threads: Synchronous, Asynchronous and AsyncReduced run the
	// bulk kernels, attenuation, sponge and PGV tracking on the pool;
	// AsyncOverlap additionally runs the boundary strips and the interior
	// update on the pool while halo messages are in flight.
	Threads int

	ABC         ABCKind
	PMLWidth    int
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
	// the production M8 output path. nil disables it. Requires LTS off:
	// frames are extracted in step lockstep across ranks because each
	// flush is a collective.
	Surface *SurfaceOptions

	// Telemetry enables the per-rank instrumentation subsystem
	// (internal/telemetry): span timers per phase, per-neighbor message
	// counters, optional ring-buffered event traces, and the cross-rank
	// aggregated report in Result.Telemetry. nil (the default) disables
	// every probe — hot paths see only nil checks, the step schedule is
	// unchanged, and results are bit-identical either way.
	Telemetry *telemetry.Options
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

	// Timing is the per-phase max across ranks (the Eq. 7 decomposition).
	Timing Timing

	// ActiveShare is the cells the velocity and stress sweeps covered over
	// the cells the ranks own, summed over ranks and local steps: below 1 for
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

// Timing is the measured Eq. 7 decomposition.
type Timing struct {
	Comp, Comm, Sync, Output float64 // seconds
}

// Run executes the simulation and returns the rank-0 result.
func Run(q cvm.Querier, opt Options) (*Result, error) {
	opt, err := PlanLTS(q, opt)
	if err != nil {
		return nil, err
	}
	dc, opt, err := Prepare(opt)
	if err != nil {
		return nil, err
	}

	var result *Result
	var runErr error
	world := mpi.NewWorld(opt.Topo.Size())
	world.Run(func(c *mpi.Comm) {
		r, e := runRank(c, q, dc, opt)
		if c.Rank() == 0 {
			result, runErr = r, e
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return result, nil
}

// rank-local solver state.
type rankState struct {
	comm *mpi.Comm
	sub  decomp.Sub
	med  *medium.Medium
	st   *fd.State
	pool *sched.Pool
	tel  *telemetry.Recorder // nil: telemetry disabled

	nbrMask [3][2]bool
	// Halo schedules of the two per-step phases.
	vel, stress *schedule

	zones   []*boundary.PML
	compBox fd.Box   // non-PML region the bulk kernels cover
	plan    tilePlan // the step's tile queues over compBox and zones
	// box is the rank's active box and plan the tile plan clipped to it,
	// until dropBox sets box nil and plan = whole (activebox.go). steps counts
	// the local steps taken (replays included), liveSteps those taken with the
	// box and swept the cells their clipped tiles covered (Result.ActiveShare).
	box              *activeBox
	whole            tilePlan
	swept            atomic.Int64
	steps, liveSteps int64

	sponge   *boundary.Sponge
	fs       *boundary.FreeSurface
	atten    *attenuation.Model
	srcs     *source.Set
	fault    *rupture.Fault
	recorder *rupture.SlipRateHistoryRecorder

	lts *ltsRank // the rank's rate, local dt and cycle; all ones with LTS off

	surf *output.Dist // aggregated surface output (nil: disabled)

	receivers []ownedReceiver
	pgvh      []float64
	pgvx      []float64
	pgvy      []float64
	pgvz      []float64
}

type ownedReceiver struct {
	idx        int
	li, lj, lk int
	series     [][3]float32
	// sampled marks the indices a rate-2^k LTS rank actually recorded;
	// the gaps are interpolated in Finish. Nil on rate-1 ranks.
	sampled []bool
}

func runRank(c *mpi.Comm, q cvm.Querier, dc decomp.Decomp, opt Options) (*Result, error) {
	s, err := NewStepper(c, q, dc, opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for !s.Done() {
		s.Step()
	}
	return s.Finish()
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

func (rs *rankState) setupFault(opt Options) error {
	f := opt.Fault
	// Clip the global window to this rank's x/z extent.
	i0 := max(f.I0, rs.sub.OffX)
	i1 := min(f.I1, rs.sub.OffX+rs.sub.Local.NX)
	k0 := max(f.K0, rs.sub.OffZ)
	k1 := min(f.K1, rs.sub.OffZ+rs.sub.Local.NZ)
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
		J0: f.J0 - rs.sub.OffY,
		I0: i0 - rs.sub.OffX, I1: i1 - rs.sub.OffX,
		K0: k0 - rs.sub.OffZ, K1: k1 - rs.sub.OffZ,
		Tau0: tau, SigmaN: sn, Friction: fr,
	}
	ft, err := rupture.NewFault(cfg, rs.sub.Local, rs.med.H)
	if err != nil {
		return err
	}
	rs.fault = ft
	// The window radiates from step 0: the split-node passes write vx on the
	// plane and sxy on the two rows either side of it.
	rs.box.join(fd.Box{I0: cfg.I0, I1: cfg.I1, J0: cfg.J0 - 2, J1: cfg.J0 + 2, K0: cfg.K0, K1: cfg.K1})
	if f.RecordEvery > 0 {
		rs.recorder = rupture.NewRecorder(ft)
	}
	return nil
}

// tile is one unit of a phase's work queue: a j/k tile of the bulk kernels'
// box (zone nil), or the part b of a PML zone.
type tile struct {
	b    fd.Box
	zone *boundary.PML
}

// queue is one pool batch of a phase: run(i) executes the i-th of n tiles.
type queue struct {
	n   int
	run func(i int)
}

// tilePlan is the rank's decomposition of a local step's kernel work, built
// once per Stepper — as the whole-tile plan and, over the same tiles, as the
// plan whose tile bodies run on their intersection with the rank's active box
// — so that a step, at any rate, tiles and allocates nothing.
// Each phase drains its pre queue — every tile of compBox and of the zones
// or, under AsyncOverlap, of compBox's halo-adjacent strips and of the zones
// — before its halo post, and under AsyncOverlap its inner queue, the tiles
// of innerBox (compBox less the strips), while the messages fly. Interior
// and zone tiles share a queue: BuildPML's zones and compBox partition the
// subgrid, and within a phase every cell reads one field family and writes
// the other (plus its zone's splits) on itself only, so tiles are
// independent and any schedule stores the same bits as the serial sweep.
type tilePlan struct {
	velPre, velInner       queue
	stressPre, stressInner queue
	innerBox               fd.Box
}

// buildTilePlan cuts compBox and the zones into tiles of shape opt.Blocking
// and fixes the zones' coefficient rows for dt, the rank's local step
// (base dt × its rate), so that no tile builds them while another reads them.
// A zone's split fields live on its rank and never cross a seam, so a zone is
// a tile like any other at every rate. It needs rs.atten and rs.fault set:
// they decide the stress tile body.
func (rs *rankState) buildTilePlan(opt Options, dt float64) {
	add := func(dst []tile, box fd.Box, z *boundary.PML) []tile {
		for _, b := range fd.Tiles(box, opt.Blocking) {
			dst = append(dst, tile{b, z})
		}
		return dst
	}
	var pre, inner []tile
	var innerBox fd.Box
	if opt.Comm == AsyncOverlap {
		var strips []fd.Box
		strips, innerBox = boundaryStrips(rs.sub.Local, rs.nbrMask, grid.Ghost)
		for _, s := range strips {
			pre = add(pre, s.Intersect(rs.compBox), nil)
		}
		innerBox = innerBox.Intersect(rs.compBox)
		inner = add(nil, innerBox, nil)
	} else {
		pre = add(nil, rs.compBox, nil)
	}
	for _, z := range rs.zones {
		z.Prepare(dt)
		pre = add(pre, z.Zone, z)
	}

	velocity := rs.velocityTile(opt, dt)
	stress := rs.stressTile(opt, dt)
	if rs.fault != nil {
		// DFR mode: the split-node correction must see the purely elastic
		// stress, so attenuation runs after it (the seed ordering) instead
		// of fused into the stress tiles.
		stress = rs.elasticTile(opt, dt)
	}
	// mk binds tiles to a phase's bodies twice: whole, and with every tile cut
	// to the active box — a tile outside it returns at once. Only a rank that
	// still has its box drains the clipped queues.
	mk := func(tiles []tile, interior func(fd.Box),
		zone func(*boundary.PML, *fd.State, *medium.Medium, float64, fd.Box)) (whole, clipped queue) {
		run := func(z *boundary.PML, b fd.Box) {
			if z == nil {
				interior(b)
				return
			}
			sp := rs.tel.Span(telemetry.Boundary)
			zone(z, rs.st, rs.med, dt, b)
			sp.End()
		}
		whole = queue{len(tiles), func(i int) { run(tiles[i].zone, tiles[i].b) }}
		clipped = queue{len(tiles), func(i int) {
			if b := tiles[i].b.Intersect(rs.box.Box); !b.Empty() {
				rs.swept.Add(int64(b.Cells()))
				run(tiles[i].zone, b)
			}
		}}
		return whole, clipped
	}
	w, p := &rs.whole, &rs.plan
	w.innerBox, p.innerBox = innerBox, innerBox
	w.velPre, p.velPre = mk(pre, velocity, (*boundary.PML).UpdateVelocityBox)
	w.velInner, p.velInner = mk(inner, velocity, nil)
	w.stressPre, p.stressPre = mk(pre, stress, (*boundary.PML).UpdateStressBox)
	w.stressInner, p.stressInner = mk(inner, stress, nil)
}

// drain runs one queue of the tile plan on the pool.
func (rs *rankState) drain(q queue) { rs.pool.ForEachN(q.n, q.run) }

// advance performs one local step of this rank, at global base-step index
// sub (a multiple of the rank's rate), by its local dt — the one step
// program of every comm model and every rate, accumulating the Eq. 7 timing
// decomposition. Each phase drains its pre queue, arms and posts its halo
// messages, drains its inner queue while they fly and finishes the exchange.
// Without AsyncOverlap the inner queues and innerBox are empty, so post and
// finish are adjacent; with every rate 1 arm leaves each message a send and
// a receive and armAbsorb finds nothing to absorb — uniform stepping is the
// multi-rate cycle of length one. All bulk work runs as tile queues on the
// rank's persistent worker pool; with Threads=1 the pool degenerates to
// inline serial execution.
func (rs *rankState) advance(opt Options, sub int, tm *Timing) {
	l, plan := rs.lts, &rs.plan
	dt := l.localDt
	tNow := float64(sub+l.rate) * l.baseDt

	// --- Velocity phase ---
	t0 := time.Now()
	rs.steps++
	if rs.box != nil && rs.box.grow() {
		rs.dropBox()
	}
	if rs.box != nil {
		rs.liveSteps++
	}
	rs.drain(plan.velPre)
	if rs.fault != nil {
		// DFR mode: the split-node correction needs the whole velocity field
		// before anything is packed (Prepare excludes DFR with overlap).
		rs.fault.UpdateVelocity(rs.st, rs.med, dt)
	}
	lap(&tm.Comp, &t0)
	l.arm(rs.vel, sub)
	rs.vel.post()
	lap(&tm.Comm, &t0)
	rs.drain(plan.velInner)
	lap(&tm.Comp, &t0)
	rs.vel.finish()
	lap(&tm.Comm, &t0)
	rs.syncBarrier(opt, tm, &t0)
	if rs.fs != nil {
		sp := rs.tel.Span(telemetry.Boundary)
		rs.fs.ApplyVelocity(rs.st, rs.med)
		sp.End()
	}

	// --- Stress phase ---
	// The sponge runs after the exchange (it damps ghost copies with the
	// same global taper, so every rank damps identical physical cells);
	// source injection runs before a cell's strip is packed so neighbor
	// ghosts include it — the sources outside innerBox before the post, the
	// ones inside after the inner tiles. Attenuation rides in the stress tile
	// — in the same sweep on the default path (stressTile) — and writes only
	// that tile's cells, so the tiles stay race-free and cell-ordered.
	if rs.box != nil && rs.box.grow() {
		// Filled between the sweeps of a step counted as clipped: its stress
		// sweep is whole.
		rs.swept.Add(int64(rs.sub.Local.Cells()))
		rs.dropBox()
	}
	rs.drain(plan.stressPre)
	if rs.fault != nil {
		// DFR mode: the stress tiles were elastic only (buildTilePlan).
		rs.fault.CorrectStress(rs.st, rs.med, dt)
		if rs.atten != nil {
			sp := rs.tel.Span(telemetry.Attenuation)
			rs.atten.ApplyTiled(rs.st, rs.med, dt, rs.clip(rs.compBox), opt.Blocking, rs.pool)
			sp.End()
		}
	}
	rs.inject(dt, tNow, false)
	lap(&tm.Comp, &t0)
	l.arm(rs.stress, sub)
	rs.stress.post()
	lap(&tm.Comm, &t0)
	rs.drain(plan.stressInner)
	rs.inject(dt, tNow, true)
	lap(&tm.Comp, &t0)
	rs.stress.finish()
	lap(&tm.Comm, &t0)
	rs.syncBarrier(opt, tm, &t0)
	if rs.sponge != nil {
		sp := rs.tel.Span(telemetry.Boundary)
		if rs.box != nil {
			rs.sponge.ApplyBox(rs.st, rs.pool, rs.box.Box)
		} else {
			rs.sponge.ApplyPool(rs.st, rs.pool)
		}
		sp.End()
	}
	if rs.fs != nil {
		sp := rs.tel.Span(telemetry.Boundary)
		rs.fs.ApplyStress(rs.st)
		sp.End()
	}
	lap(&tm.Comp, &t0)

	// Absorb finer neighbors' window-end faces last, leaving the ghost
	// region at the new time level for the next step.
	if l.armAbsorb(rs.vel) {
		rs.vel.exchange()
	}
	if l.armAbsorb(rs.stress) {
		rs.stress.exchange()
	}
	lap(&tm.Comm, &t0)
}

// clip returns b cut to the rank's active box, or b once that is dropped.
func (rs *rankState) clip(b fd.Box) fd.Box {
	if rs.box == nil {
		return b
	}
	return b.Intersect(rs.box.Box)
}

// inject feeds the sources inside (or outside) the plan's innerBox, and the
// nodes whose rate was nonzero join the active box: until its rate first
// samples nonzero a source adds ±0, which changes no stored bit.
func (rs *rankState) inject(dt, t float64, inside bool) {
	fed := rs.srcs.InjectRegion(rs.st, dt, t, rs.plan.innerBox, inside)
	if rs.box != nil {
		rs.box.join(fed)
	}
}

// lap adds the time since *t0 to acc and restarts the clock.
func lap(acc *float64, t0 *time.Time) {
	now := time.Now()
	*acc += now.Sub(*t0).Seconds()
	*t0 = now
}

// syncBarrier is the Synchronous model's global barrier after a phase's
// exchange. It runs only when every rank steps at rate 1: ranks of different
// rates take different numbers of local steps per cycle, so there is no
// per-step collective a barrier could pair with (DESIGN.md §12).
func (rs *rankState) syncBarrier(opt Options, tm *Timing, t0 *time.Time) {
	if opt.Comm != Synchronous || rs.lts.maxRate > 1 {
		return
	}
	sp := rs.tel.Span(telemetry.Sync)
	rs.comm.Barrier()
	sp.End()
	lap(&tm.Sync, t0)
}

// velocityTile returns the velocity tile body of every path. Bulk tiles are
// timed from inside the tile, so the zone tiles of the same queue (timed as
// Boundary) are not counted as kernel time.
func (rs *rankState) velocityTile(opt Options, dt float64) func(fd.Box) {
	return func(b fd.Box) {
		sp := rs.tel.Span(telemetry.Velocity)
		fd.UpdateVelocity(rs.st, rs.med, dt, b, opt.Variant, opt.Blocking)
		sp.End()
	}
}

// elasticTile returns the elastic-only stress tile body of the DFR path.
func (rs *rankState) elasticTile(opt Options, dt float64) func(fd.Box) {
	return func(b fd.Box) {
		sp := rs.tel.Span(telemetry.Stress)
		fd.UpdateStress(rs.st, rs.med, dt, b, opt.Variant, opt.Blocking)
		sp.End()
	}
}

// stressTile returns the stress tile body of a run without a fault. With
// attenuation on, every variant that reads the precomputed coefficients runs
// attenuation.FusedStress: the memory-variable update rides in the elastic
// i-loop, one read/modify/write of the six stress fields per cell instead of
// two, bit-identical to the pair of passes it replaces. Its whole time lands
// in the Stress span — there is no separate attenuation pass to time. Naive
// and Recip are the §IV.B ablation of the in-loop coefficient arithmetic
// FusedStress does not have, so they keep their elastic kernel and the second
// pass, each under its own span; Span.End is safe from concurrent pool
// workers.
func (rs *rankState) stressTile(opt Options, dt float64) func(fd.Box) {
	elastic := rs.elasticTile(opt, dt)
	switch {
	case rs.atten == nil:
		return elastic
	case opt.Variant.Precomputed():
		return func(b fd.Box) {
			sp := rs.tel.Span(telemetry.Stress)
			rs.atten.FusedStress(rs.st, rs.med, dt, b)
			sp.End()
		}
	}
	return func(b fd.Box) {
		elastic(b)
		sp := rs.tel.Span(telemetry.Attenuation)
		rs.atten.Apply(rs.st, rs.med, dt, b)
		sp.End()
	}
}

// trackPGV folds the current surface velocities into the peak maps,
// row-sliced over the pool (rows are disjoint, so the parallel fold is
// race-free and bit-identical to the serial one). Outside the active box the
// velocities are zero and fold to what the maps hold.
func (rs *rankState) trackPGV() {
	if rs.pgvh == nil {
		return
	}
	b := rs.clip(fd.Box{I1: rs.sub.Local.NX, J1: rs.sub.Local.NY, K1: 1})
	if b.Empty() {
		return
	}
	rs.pool.ForEachN(b.J1-b.J0, func(n int) { rs.trackPGVRow(b.J0+n, b.I0, b.I1) })
}

// trackPGVRow folds columns [i0, i1) of surface row j through contiguous row
// slices instead of per-point bounds-checked At() calls.
func (rs *rankState) trackPGVRow(j, i0, i1 int) {
	n := i1 - i0
	base := rs.st.VX.Idx(i0, j, 0) // identical layout across components
	vxr := rs.st.VX.Data()[base : base+n]
	vyr := rs.st.VY.Data()[base : base+n]
	vzr := rs.st.VZ.Data()[base : base+n]
	o := j*rs.sub.Local.NX + i0
	ph := rs.pgvh[o : o+n]
	px := rs.pgvx[o : o+n]
	py := rs.pgvy[o : o+n]
	pz := rs.pgvz[o : o+n]
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

// packSurfaceFrame serializes this rank's free-surface velocity
// rectangle for one output frame: vx, vy, vz per point, x fastest then
// y, matching the in-frame file view built in NewStepper. Returns nil on
// ranks that own no surface points.
func (rs *rankState) packSurfaceFrame() []byte {
	if rs.sub.OffZ != 0 {
		return nil
	}
	nx, ny := rs.sub.Local.NX, rs.sub.Local.NY
	buf := make([]float32, nx*ny*3)
	for j := 0; j < ny; j++ {
		base := rs.st.VX.Idx(0, j, 0)
		vxr := rs.st.VX.Data()[base : base+nx]
		vyr := rs.st.VY.Data()[base : base+nx]
		vzr := rs.st.VZ.Data()[base : base+nx]
		o := j * nx * 3
		for i := 0; i < nx; i++ {
			buf[o] = vxr[i]
			buf[o+1] = vyr[i]
			buf[o+2] = vzr[i]
			o += 3
		}
	}
	return mpiio.PutFloat32s(buf)
}
