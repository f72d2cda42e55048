package solver

import (
	"fmt"
	"math"

	"repro/internal/core/attenuation"
	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/output"
	"repro/internal/telemetry"
)

// Prepare normalizes opt (defaulting exactly as Run does) and builds the
// domain decomposition. External harnesses (internal/ft) call it once
// before spawning ranks so every rank sees identical resolved options.
func Prepare(opt Options) (decomp.Decomp, Options, error) {
	if opt.Topo.Size() == 0 {
		opt.Topo = mpi.NewCart(1, 1, 1)
	}
	// The grid itself first: on a grid with an empty axis every receiver
	// and source lies outside, and the error would name the wrong field.
	if !opt.Global.Valid() {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: the %v grid has an axis of no cells", opt.Global)
	}
	if opt.Threads < 0 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: Threads must be >= 0, got %d", opt.Threads)
	}
	if opt.Steps < 0 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: Steps must be >= 0, got %d", opt.Steps)
	}
	if err := checkSpacing(opt.H); err != nil {
		return decomp.Decomp{}, opt, err
	}
	// NaN fails every comparison, so it is rejected with the out-of-range
	// values: a step or a CFL factor of NaN or +Inf has no source sample
	// index int(t/dt).
	if !(opt.Dt >= 0) || math.IsInf(opt.Dt, 1) {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: Dt must be positive and finite, or zero for automatic; got %g", opt.Dt)
	}
	if !(opt.CFL >= 0 && opt.CFL <= 1) {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: CFL must lie in (0, 1], got %g", opt.CFL)
	}
	if opt.CFL == 0 {
		opt.CFL = 0.5
	}
	// The solver runs the production kernels only; no field may run as
	// another model without a word.
	if opt.Variant != fd.Default && opt.Variant != fd.Blocked {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: kernel variant %v: a run takes the production kernels only; the §IV.B ablation rungs run through fd.UpdateVelocity and fd.UpdateStress", opt.Variant)
	}
	if opt.Blocking.JBlock < 0 || opt.Blocking.KBlock < 0 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: Blocking %+v: a cache block factor must be >= 0", opt.Blocking)
	}
	if opt.Comm < Synchronous || opt.Comm > AsyncOverlap {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: unknown comm model %d", int(opt.Comm))
	}
	if opt.ABC < NoABC || opt.ABC > MPMLABC {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: unknown absorbing boundary kind %d", int(opt.ABC))
	}
	if opt.pmlWidth <= 0 {
		opt.pmlWidth = boundary.DefaultPMLWidth
	}
	if opt.SpongeWidth <= 0 {
		opt.SpongeWidth = boundary.DefaultSpongeWidth
	}
	if opt.TemporalDepth != 0 && opt.TemporalDepth != 1 {
		return decomp.Decomp{}, opt, fmt.Errorf("solver: TemporalDepth %d: temporal tiling is gone, a Step is one step (0 or 1)", opt.TemporalDepth)
	}
	if so := opt.Surface; so != nil {
		if so.FS == nil || so.Path == "" {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: Surface output needs FS and Path")
		}
		// Normalize a copy so shared Options values are not mutated.
		ns := *so
		if ns.Every <= 0 {
			ns.Every = 1
		}
		if ns.FlushEvery <= 0 {
			ns.FlushEvery = 1
		}
		opt.Surface = &ns
	}
	for i, r := range opt.Receivers {
		// No rank owns a point outside the grid: its seismogram would come
		// back nil.
		if !inGrid(opt.Global, r[0], r[1], r[2]) {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: receiver %d at %v lies outside the %v grid", i, r, opt.Global)
		}
	}
	for i := range opt.Sources {
		// Like a receiver: source.Localize would hand it to no rank, and the
		// run would radiate nothing.
		s := &opt.Sources[i]
		if !inGrid(opt.Global, s.GI, s.GJ, s.GK) {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: source %d at (%d,%d,%d) lies outside the %v grid", i, s.GI, s.GJ, s.GK, opt.Global)
		}
		// A source must radiate: a sample step that is not positive and
		// finite has no sample index int(t/dt), and a NaN rate fails every
		// comparison of the PGV fold, so a NaN wavefield would report a PGV
		// of 0 (an overflowed one, +Inf).
		if !(s.Dt > 0) || math.IsInf(s.Dt, 1) {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: source %d samples at Dt %g; it must be positive and finite", i, s.Dt)
		}
		for n := range s.Rate {
			for _, v := range s.Rate[n] {
				if math.Float32bits(v)&0x7f800000 == 0x7f800000 { // all exponent bits: ±Inf or NaN
					return decomp.Decomp{}, opt, fmt.Errorf("solver: source %d holds %g at sample %d; every rate must be finite", i, v, n)
				}
			}
		}
	}
	dc, err := decomp.New(opt.Global, opt.Topo)
	if err != nil {
		return decomp.Decomp{}, opt, err
	}
	if opt.ABC == MPMLABC {
		for r := 0; r < opt.Topo.Size(); r++ {
			// The condition boundary.BuildPML would panic on inside the rank.
			if local := dc.SubFor(r).Local; boundary.PMLInterior(local, ownedFaces(dc, r, opt), opt.pmlWidth).Empty() {
				return decomp.Decomp{}, opt, fmt.Errorf("solver: PML width %d leaves rank %d no interior: its zones consume the %v subgrid along some axis",
					opt.pmlWidth, r, local)
			}
		}
	}
	if f := opt.Fault; f != nil {
		if opt.Topo.PY != 1 {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: DFR mode requires PY=1 (fault plane may not cross rank seams in y)")
		}
		// With PY = 1 every rank's clipped window is a sub-window of this one
		// on the same NY, so a spec valid here is valid on every rank: no
		// rank fails its set-up alone and leaves its peers waiting on it.
		global := rupture.Config{J0: f.J0, I0: f.I0, I1: f.I1, K0: f.K0, K1: f.K1,
			Tau0: f.Tau0, SigmaN: f.SigmaN, Friction: f.Friction}
		if err := global.Validate(opt.Global); err != nil {
			return decomp.Decomp{}, opt, fmt.Errorf("solver: %w", err)
		}
	}
	return dc, opt, nil
}

// inGrid reports whether global node (i, j, k) is a cell of g.
func inGrid(g grid.Dims, i, j, k int) bool {
	return i >= 0 && i < g.NX && j >= 0 && j < g.NY && k >= 0 && k < g.NZ
}

// checkSpacing rejects a grid spacing the stable step cannot be derived from:
// dt scales with H, so zero or NaN would run every step at dt = 0 and return
// an all-zero wavefield without a word.
func checkSpacing(h float64) error {
	if !(h > 0) || math.IsInf(h, 0) {
		return fmt.Errorf("solver: H must be a positive, finite grid spacing; got %g", h)
	}
	return nil
}

// Stepper is one rank of a prepared run, stepped one time step at a time:
// Run steps every rank's to the end, and the fault-tolerance harness
// interleaves stepping with checkpointing and rolls the step cursor back
// after a coordinated recovery. All per-step observables are
// index-addressed (receiver samples by sample index, moment rate by step,
// PGV by monotone max-fold), so replaying a step range after a rollback
// overwrites identical values and the final outputs stay bit-identical
// to an uninterrupted run; the one appending observable, the DFR slip-rate
// history, is cut back to the rollback step by SetStepIndex.
type Stepper struct {
	opt  Options
	dt   float64
	comm *mpi.Comm
	sub  decomp.Sub
	med  *medium.Medium
	st   *fd.State
	tel  *telemetry.Recorder // nil: telemetry disabled

	nbrMask [3][2]bool
	// Halo schedules of the two per-step phases.
	vel, stress *schedule

	zones   []*boundary.PML
	compBox fd.Box   // non-PML region the bulk kernels cover
	plan    tilePlan // the step's tile queues over compBox and zones
	// box is the rank's active box (activebox.go), which the plan's tiles and
	// both schedules are cut to. steps counts the steps taken (replays
	// included) and swept the cells their tiles covered (Result.ActiveShare).
	box          *activeBox
	swept, steps int64

	sponge   *boundary.Sponge
	taper    fd.Taper // the sponge's factors, or the zero Taper without one
	fs       *boundary.FreeSurface
	atten    *attenuation.Model
	srcs     *source.Set
	fault    *rupture.Fault
	recorder *rupture.SlipRateHistoryRecorder

	surf    *output.Dist // aggregated surface output (nil: disabled)
	surfErr error

	receivers []ownedReceiver
	// The surface peak maps: pgvh the largest vx²+vy², pgvx and pgvy the
	// largest |vx| and |vy|.
	pgvh       []float64
	pgvx, pgvy []float32
	momentRate []float64

	step int // the next step to execute
}

// NewStepper builds one rank's solver state inside a world body. opt and
// dc must come from Prepare.
func NewStepper(c *mpi.Comm, q cvm.Querier, dc decomp.Decomp, opt Options) (*Stepper, error) {
	s := &Stepper{opt: opt, comm: c, sub: dc.SubFor(c.Rank())}
	s.med = medium.FromCVM(q, dc, s.sub, opt.H)
	s.st = fd.NewState(s.sub.Local)
	if opt.Telemetry != nil {
		s.tel = telemetry.NewRecorder(c.Rank(), opt.Telemetry.TraceEvents)
		c.SetTelemetry(s.tel)
	}
	for ax := 0; ax < 3; ax++ {
		s.nbrMask[ax][0] = opt.Topo.Neighbor(c.Rank(), ax, -1) >= 0
		s.nbrMask[ax][1] = opt.Topo.Neighbor(c.Rank(), ax, +1) >= 0
	}

	// One collective, Dt given or not: the stable dt, the lowest rank whose
	// medium is Unphysical and the stable dt at safety factor 1, the bound on
	// an explicit Dt — every rank returns one error, none waits on another.
	bad := math.Inf(1)
	if s.med.Unphysical {
		bad = float64(c.Rank())
	}
	agreed := c.Allreduce([]float64{s.med.StableDt(opt.CFL), bad, s.med.StableDt(1)}, mpi.Min)
	if bad = agreed[1]; !math.IsInf(bad, 1) {
		return nil, fmt.Errorf("solver: the velocity model gives rank %d a material that is not finite or has Vp <= 0, Vs < 0 or density <= 0", int(bad))
	}
	s.dt = opt.Dt
	if s.dt <= 0 {
		s.dt = agreed[0]
	} else if s.dt > agreed[2] {
		return nil, fmt.Errorf("solver: Dt %g exceeds the model's stable step %g (CFL 1): the run would blow up", s.dt, agreed[2])
	}

	// Boundary conditions on the physical faces this rank owns.
	faces := ownedFaces(dc, c.Rank(), opt)
	s.compBox = fd.FullBox(s.sub.Local)
	switch opt.ABC {
	case MPMLABC:
		vpMax := c.Allreduce([]float64{s.med.MaxVp}, mpi.Max)[0]
		s.zones, s.compBox = boundary.BuildPML(s.sub.Local, faces, opt.pmlWidth,
			boundary.DefaultMPMLRatio, boundary.DefaultPMLReflection, vpMax, opt.H)
	case SpongeABC:
		globalFaces := boundary.FaceSet{
			XLo: true, XHi: true, YLo: true, YHi: true,
			ZLo: !opt.FreeSurface, ZHi: true,
		}
		s.sponge = boundary.NewSpongeGlobal(s.sub.Local, opt.Global,
			[3]int{s.sub.OffX, s.sub.OffY, s.sub.OffZ},
			opt.SpongeWidth, boundary.DefaultSpongeAlpha, globalFaces)
		s.taper = s.sponge.Taper()
	}
	if opt.FreeSurface && s.sub.OffZ == 0 {
		s.fs = boundary.NewFreeSurface(s.sub.Local)
	}
	if opt.Attenuation {
		s.atten = attenuation.New(s.med, attenuation.DefaultBand, s.dt)
		s.atten.Origin = [3]int{s.sub.OffX, s.sub.OffY, s.sub.OffZ}
	}
	s.med.QS = nil // read by the deficits alone
	// The two per-step halo phases, cut to the rank's box.
	env := newHaloEnv(c, opt.Topo, s.sub.Local, s.tel)
	s.box = newActiveBox(s.sub.Local)
	env.box = s.box
	s.vel = classicSchedule(env, phaseVelocity, opt.Comm, s.st.Velocities())
	s.stress = classicSchedule(env, phaseStress, opt.Comm, s.st.Stresses())
	s.srcs = source.Localize(opt.Sources, s.sub, opt.H)

	if opt.Fault != nil {
		if err := s.setupFault(); err != nil {
			return nil, err
		}
		s.momentRate = make([]float64, opt.Steps)
	}

	s.buildTilePlan()

	// Receiver series are preallocated and sample-indexed so a replayed
	// step overwrites its own sample instead of appending a duplicate.
	for idx, r := range opt.Receivers {
		if li, lj, lk, ok := s.sub.Contains(r[0], r[1], r[2]); ok {
			s.receivers = append(s.receivers, ownedReceiver{
				idx: idx, li: li, lj: lj, lk: lk,
				series: make([][3]float32, opt.Steps),
			})
		}
	}
	if opt.TrackPGV && s.sub.OffZ == 0 {
		n := s.sub.Local.NX * s.sub.Local.NY
		s.pgvh = make([]float64, n)
		s.pgvx = make([]float32, n)
		s.pgvy = make([]float32, n)
	}

	if so := opt.Surface; so != nil {
		var segs []mpiio.Segment
		if s.sub.OffZ == 0 {
			segs = mpiio.BlockSegments(grid.Dims{NX: opt.Global.NX, NY: opt.Global.NY, NZ: 1},
				s.sub.OffX, s.sub.OffX+s.sub.Local.NX,
				s.sub.OffY, s.sub.OffY+s.sub.Local.NY, 0, 1, SurfaceRecBytes)
		}
		frameBytes := opt.Global.NX * opt.Global.NY * SurfaceRecBytes
		d, err := output.NewDist(c, so.FS, so.Path, frameBytes, segs, so.FlushEvery, so.Agg, s.tel)
		if err != nil {
			return nil, err
		}
		s.surf = d
	}
	return s, nil
}

// StepIndex returns the index of the next step to execute.
func (s *Stepper) StepIndex() int { return s.step }

// SetStepIndex rewinds (or advances) the step cursor — the rollback half
// of coordinated recovery, paired with a checkpoint.Read into Sections(). The
// cursor must lie in [0, Steps]. An accepted cursor is also the one way to
// tell the Stepper that its sections were written from outside — between
// steps they are otherwise read-only — so the rank's active box, which
// describes the state the Stepper itself computed, fills its subgrid; a
// rejected one changes nothing.
func (s *Stepper) SetStepIndex(n int) error {
	if n < 0 || n > s.opt.Steps {
		return fmt.Errorf("solver: step index %d lies outside the run's steps 0..%d", n, s.opt.Steps)
	}
	s.box.fill()
	// Drop what the replay records again: buffered surface frames (flushed
	// ones are offset-addressed and overwrite identically) and the slip-rate
	// samples of steps n and on.
	if s.surf != nil {
		e := s.opt.Surface.Every
		s.surf.Rewind((n + e - 1) / e)
	}
	if s.recorder != nil {
		e := s.opt.Fault.RecordEvery
		s.recorder.Truncate((n + e - 1) / e)
	}
	s.step = n
	return nil
}

// Done reports whether every configured step has executed.
func (s *Stepper) Done() bool { return s.step >= s.opt.Steps }

// Sections lists the rank's restart state by walking its owners — wavefield,
// memory variables, M-PML zone splits, fault — each aliasing live state, for
// checkpoint.Write to save and checkpoint.Read to restore in place.
func (s *Stepper) Sections() []grid.Section {
	secs := s.st.Sections()
	if s.atten != nil {
		secs = append(secs, s.atten.Sections()...)
	}
	for _, z := range s.zones {
		secs = append(secs, z.Sections()...)
	}
	if s.fault != nil {
		secs = append(secs, s.fault.Sections()...)
	}
	return secs
}

// Recorder exposes the rank's telemetry recorder (nil when telemetry is
// disabled) so harnesses can attribute checkpoint and recovery spans.
func (s *Stepper) Recorder() *telemetry.Recorder { return s.tel }

// Step executes one time step — kernels, halo exchange, sources,
// boundaries — followed by index-addressed observable extraction, and
// advances the step cursor. A surface frame is packed into its slot of the
// output buffer inside the Output span; a flush it completes is the
// collective Agg phase after it.
func (s *Stepper) Step() {
	step := s.step
	if s.fault != nil {
		// Once a step, before any tile's split-node update stamps a rupture
		// time with it.
		s.fault.Tick(s.dt)
	}
	s.advance()

	if s.fault != nil {
		s.momentRate[step] = s.fault.MomentRate(s.med)
		if s.recorder != nil && step%s.opt.Fault.RecordEvery == 0 {
			s.recorder.Record()
		}
	}

	sp := s.tel.Span(telemetry.Output)
	for i := range s.receivers {
		r := &s.receivers[i]
		r.series[step] = s.sample(r.li, r.lj, r.lk)
	}
	s.trackPGV()
	frame := s.surf != nil && step%s.opt.Surface.Every == 0
	if frame {
		s.packSurfaceFrame(s.surf.Frame(step / s.opt.Surface.Every))
	}
	sp.End()
	if frame {
		if err := s.surf.Commit(); err != nil && s.surfErr == nil {
			s.surfErr = err
		}
	}
	s.tel.StepEnd()
	s.step++
}

// Finish gathers all per-rank outputs at rank 0 (collective: every rank
// must call it) and returns the rank-0 Result (nil on other ranks).
func (s *Stepper) Finish() (*Result, error) {
	// Final surface flush first — a collective, like the gathers below,
	// so every rank takes it in the same order.
	if s.surf != nil {
		if err := s.surf.Flush(); err != nil && s.surfErr == nil {
			s.surfErr = err
		}
	}
	res, err := s.collect()
	if err == nil && s.surfErr != nil {
		err = s.surfErr
	}
	if err != nil {
		return nil, err
	}
	if res != nil && s.surf != nil {
		res.Surface = &s.surf.Stats
	}
	return res, nil
}
