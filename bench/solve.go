package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/awp"
	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/decomp"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// solveCfg is what distinguishes the three solve-* workloads; everything
// else about the scenario is shared.
type solveCfg struct {
	name, short    string // "solve-8rank", "8rank"
	ranks, threads int
	abc            solver.ABCKind
	steps          int
	refKey         string // which reference digest applies
}

func solveConfigs(sc scale) [3]solveCfg {
	return [3]solveCfg{
		{"solve-1rank", "1rank", 1, 1, awp.SpongeABC, sc.solveSteps, "sponge"},
		{"solve-8rank", "8rank", 8, 1, awp.SpongeABC, sc.solveSteps, "sponge"},
		{"solve-mpml", "mpml", 1, 2, awp.MPMLABC, sc.mpmlSteps, "mpml"},
	}
}

// solveScenario builds the shared scenario. The seed moves the source by up
// to sc.jitter cells on each axis. Every option awp's callers leave unset
// (Variant, SpongeWidth, Dt, CFL, blocking, halo layout) is left unset, so
// a change of default shows up here.
func solveScenario(sc scale, cfg solveCfg, seed int64) (awp.Model, awp.Scenario) {
	d := sc.solveDims
	rng := rand.New(rand.NewSource(seed))
	jit := func() int { return rng.Intn(2*sc.jitter+1) - sc.jitter }
	si, sj, sk := d.NX/2+jit(), d.NY/2+jit(), sc.sourceK+jit()
	q := awp.SoCalModel(float64(d.NX-1)*sc.solveH, float64(d.NY-1)*sc.solveH, float64(d.NZ-1)*sc.solveH, 500)
	return q, awp.Scenario{
		Dims: d, H: sc.solveH, Steps: cfg.steps,
		Ranks: cfg.ranks, Threads: cfg.threads,
		Comm: awp.AsyncReduced, ABC: cfg.abc,
		FreeSurface: true, Attenuation: true,
		Sources:   awp.PointMomentSource(si, sj, sk, 1e16, 0.3, 0.08),
		Receivers: solveReceivers(d),
		TrackPGV:  true,
	}
}

// solveReceivers puts the two surface receivers in different quadrants, so
// on 2x2x2 ranks they are gathered from different owners.
func solveReceivers(d awp.Dims) [][3]int {
	return [][3]int{{d.NX / 4, d.NY / 4, 0}, {d.NX * 11 / 14, d.NY * 5 / 7, 0}}
}

// digest is the part of a solve result the committed references hold.
type digest struct {
	Steps     int       `json:"steps"`
	Dt        float64   `json:"dt"`
	PGVMax    float64   `json:"pgv_max"`
	PGVSum    float64   `json:"pgv_sum"`
	Samples   []float64 `json:"pgv_samples"` // PGVH at eight fixed surface cells
	Receivers []float64 `json:"receiver_pgvh"`
}

func digestOf(res *awp.Result, d awp.Dims) digest {
	g := digest{Steps: res.Steps, Dt: res.Dt}
	for _, v := range res.PGVH {
		g.PGVMax = math.Max(g.PGVMax, v)
		g.PGVSum += v
	}
	for t := 1; t <= 8; t++ {
		i, j := d.NX*t/9, d.NY*((3*t)%9+1)/10
		g.Samples = append(g.Samples, res.PGVH[j*d.NX+i])
	}
	for _, s := range res.Seismograms {
		g.Receivers = append(g.Receivers, awp.PGVH(s))
	}
	return g
}

func relClose(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func (g digest) within(o digest, tol float64) bool {
	if g.Steps != o.Steps || len(g.Samples) != len(o.Samples) || len(g.Receivers) != len(o.Receivers) {
		return false
	}
	ok := relClose(g.Dt, o.Dt, tol) && relClose(g.PGVMax, o.PGVMax, tol) && relClose(g.PGVSum, o.PGVSum, tol)
	for i := range g.Samples {
		ok = ok && relClose(g.Samples[i], o.Samples[i], tol)
	}
	for i := range g.Receivers {
		ok = ok && relClose(g.Receivers[i], o.Receivers[i], tol)
	}
	return ok
}

// refFS holds the committed full-scale reference digests, one file per
// seed, keyed by boundary kind.
//
//go:embed ref/*.json
var refFS embed.FS

// reference returns the committed digest for (seed, key), or nil when the
// seed has none or the scale is not the one the references were made at.
func reference(sc scale, seed int64, key string) (*digest, error) {
	if sc.name != "full" {
		return nil, nil
	}
	raw, err := refFS.ReadFile(fmt.Sprintf("ref/seed-%d.json", seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var byKey map[string]digest
	if err := json.Unmarshal(raw, &byKey); err != nil {
		return nil, fmt.Errorf("ref/seed-%d.json: %w", seed, err)
	}
	g, ok := byKey[key]
	if !ok {
		return nil, fmt.Errorf("ref/seed-%d.json: no %q digest", seed, key)
	}
	return &g, nil
}

// verifySolve counts one run as attempted and checks it: no error, every
// step taken, a finite non-trivial PGV map, receiver peaks that agree with
// the PGV map cell they sit on (the two are gathered by different code), and
// the committed reference within 1e-4 when the seed has one.
func verifySolve(m *measurement, sc scale, cfg solveCfg, s awp.Scenario, seed int64, res *awp.Result, err error) {
	m.attempted++
	if err != nil {
		m.fail("%s: %v", cfg.name, err)
		return
	}
	if res.Steps != s.Steps || len(res.PGVH) != s.Dims.NX*s.Dims.NY || len(res.Seismograms) != len(s.Receivers) {
		m.fail("%s: result shape: steps %d, %d PGV cells, %d seismograms", cfg.name, res.Steps, len(res.PGVH), len(res.Seismograms))
		return
	}
	g := digestOf(res, s.Dims)
	if !finite(g.PGVSum) || (s.Steps > 1 && g.PGVMax <= 0) {
		m.fail("%s: PGV map max %g sum %g", cfg.name, g.PGVMax, g.PGVSum)
		return
	}
	for r, rc := range s.Receivers {
		if cell := res.PGVH[rc[1]*s.Dims.NX+rc[0]]; !relClose(g.Receivers[r], cell, 1e-6) {
			m.fail("%s: receiver %d peak %g but PGV map cell %g", cfg.name, r, g.Receivers[r], cell)
			return
		}
	}
	if s.Steps != cfg.steps {
		return // a set-up run of one step has no reference
	}
	ref, err := reference(sc, seed, cfg.refKey)
	if err != nil {
		m.fail("%s: %v", cfg.name, err)
	} else if ref != nil && !g.within(*ref, 1e-4) {
		m.fail("%s: result differs from ref/seed-%d.json %q by more than 1e-4", cfg.name, seed, cfg.refKey)
	}
}

// solveWorkload returns the run function of the idx-th solve workload.
func solveWorkload(idx int) func(o options, tr *tracer) measurement {
	return func(o options, tr *tracer) measurement {
		cfg := solveConfigs(o.scale)[idx]
		q, s := solveScenario(o.scale, cfg, o.seed)
		var m measurement
		if tr != nil {
			redrive(&m, o, cfg, q, s, tr)
			return m
		}

		// Set-up: a whole awp.Run of one step — model query, medium,
		// boundary, attenuation and source set-up, world and pool spawn,
		// result gather. The first call also pays lazy runtime set-up and
		// is not timed.
		one := s
		one.Steps = 1
		setups := make([]float64, 0, o.scale.setupReps)
		for i := 0; i <= o.scale.setupReps; i++ {
			runtime.GC() // as before the timed repetitions below
			t0 := time.Now()
			res, err := awp.Run(q, one)
			if i > 0 {
				setups = append(setups, time.Since(t0).Seconds())
			}
			verifySolve(&m, o.scale, cfg, one, o.seed, res, err)
		}
		m.setupS = median(setups)

		var first *awp.Result
		for rep, measured := 0, 0.0; rep < o.scale.solveMaxReps[idx] &&
			(rep < o.scale.solveMinReps[idx] || measured < o.seconds); rep++ {
			// Collect the previous run's fields first, so that peak RSS is
			// one run's footprint and not a matter of GC timing.
			runtime.GC()
			c0, t0 := cpuSeconds(), time.Now()
			res, err := awp.Run(q, s)
			verifySolve(&m, o.scale, cfg, s, o.seed, res, err)
			wall := time.Since(t0).Seconds()
			m.solveS = append(m.solveS, wall)
			m.cpuS = append(m.cpuS, cpuSeconds()-c0)
			measured += wall
			if err != nil {
				continue
			}
			if first == nil {
				first = res
			} else if !slices.Equal(first.PGVH, res.PGVH) {
				m.fail("%s: repetition %d is not bit-identical to the first", cfg.name, rep)
			}
		}
		if first != nil {
			if b, err := json.Marshal(digestOf(first, s.Dims)); err == nil {
				fmt.Printf("%-12s digest %q %s\n", cfg.name, cfg.refKey, b)
			}
		}
		return m
	}
}

// stepPhases are the nine phases of a classic solver step that
// solver.phase_share.* reports and the closure check sums.
var stepPhases = []telemetry.Phase{
	telemetry.Velocity, telemetry.Stress, telemetry.Attenuation, telemetry.Boundary,
	telemetry.Pack, telemetry.Send, telemetry.Recv, telemetry.Unpack, telemetry.Output,
}

// redriveOptions maps the scenario onto solver.Options the way awp.Run does
// for the fields the solve workloads set: "" resolves to the Blocked kernel
// at DefaultBlocking, an unset SpongeWidth to 8, and eight ranks on these
// grids to 2x2x2. verifySolve holds the re-driven result to the same
// reference as awp.Run's, so drift between the two mappings fails a check.
func redriveOptions(s awp.Scenario) solver.Options {
	topo := mpi.NewCart(1, 1, 1)
	if s.Ranks == 8 {
		topo = mpi.NewCart(2, 2, 2)
	}
	return solver.Options{
		Global: s.Dims, H: s.H, Steps: s.Steps, Topo: topo,
		Comm: s.Comm, Threads: s.Threads,
		Variant: fd.Blocked, Blocking: fd.DefaultBlocking, TemporalDepth: 1,
		ABC: s.ABC, SpongeWidth: 8,
		FreeSurface: s.FreeSurface, Attenuation: s.Attenuation,
		Sources: s.Sources, Receivers: s.Receivers, TrackPGV: s.TrackPGV,
		Telemetry: &telemetry.Options{},
		LTS:       solver.LTSOptions{WorkBalance: true},
	}
}

// redrive is the traced run of a solve workload: the steps of solver.Run
// taken one at a time from here — PlanLTS, Prepare, World.Run, NewStepper,
// Step, Finish — with a span per call on rank 0, solver telemetry on, and a
// denormal scan of every rank's state each frontWindow steps.
func redrive(m *measurement, o options, cfg solveCfg, q awp.Model, s awp.Scenario, tr *tracer) {
	id := fmt.Sprintf("%s#%d", cfg.name, o.seed)
	run := tr.begin(-1, id, cfg.name)
	h := tr.begin(run, id, "solver.Prepare")
	opt, err := solver.PlanLTS(q, redriveOptions(s))
	var dc decomp.Decomp
	if err == nil {
		dc, opt, err = solver.Prepare(opt)
	}
	tr.end(h)
	if err != nil {
		tr.end(run)
		m.check(false, "%s: Prepare: %v", cfg.name, err)
		return
	}

	n := opt.Topo.Size()
	window := o.scale.frontWindow
	nWin := (s.Steps + window - 1) / window
	var (
		res       *awp.Result
		resErr    error
		newStepS  float64
		stepS     = make([]float64, s.Steps)
		loopS     = make([]float64, n) // step loop wall per rank, scans excluded
		phaseS    = make([][]float64, n)
		denormals = make([][]int, n) // [rank][window]
		elements  = make([]int, n)
	)
	wh := tr.begin(run, id, "mpi.World.Run")
	mpi.NewWorld(n).Run(func(c *mpi.Comm) {
		r := c.Rank()
		denormals[r] = make([]int, nWin)
		sh := -1
		if r == 0 {
			sh = tr.begin(wh, id, "solver.NewStepper")
		}
		st, err := solver.NewStepper(c, q, dc, opt)
		if r == 0 {
			newStepS = tr.end(sh)
		}
		if err != nil {
			if r == 0 {
				resErr = err
			}
			return
		}
		defer st.Close()
		var scanS float64
		t0 := time.Now()
		for !st.Done() {
			i := st.StepIndex()
			if r == 0 {
				sh = tr.begin(wh, id, "Stepper.Step")
			}
			st.Step()
			if r == 0 {
				stepS[i] = tr.end(sh)
			}
			if (i+1)%window == 0 || i+1 == s.Steps {
				ts := time.Now()
				denormals[r][i/window], elements[r] = countDenormals(st.State())
				scanS += time.Since(ts).Seconds()
			}
		}
		loopS[r] = time.Since(t0).Seconds() - scanS
		phaseS[r] = make([]float64, len(stepPhases))
		for pi, p := range stepPhases {
			phaseS[r][pi], _ = st.Recorder().PhaseTotal(p)
		}
		if r == 0 {
			sh = tr.begin(wh, id, "Stepper.Finish")
		}
		rr, err := st.Finish()
		if r == 0 {
			tr.end(sh)
			res, resErr = rr, err
		}
	})
	tr.end(wh)
	wall := tr.end(run)
	verifySolve(m, o.scale, cfg, s, o.seed, res, resErr)
	if resErr != nil {
		return
	}
	m.pgv = res.PGVH

	// Front windows: more than 1% of all wavefield values denormal.
	var total int
	for _, e := range elements {
		total += e
	}
	var frontT, filledT []float64
	peak := 0.0
	for i, t := range stepS {
		den := 0
		for r := range denormals {
			den += denormals[r][i/window]
		}
		share := float64(den) / float64(total)
		peak = math.Max(peak, share)
		if share > 0.01 {
			frontT = append(frontT, t)
		} else {
			filledT = append(filledT, t)
		}
	}
	cells := float64(s.Dims.NX * s.Dims.NY * s.Dims.NZ)
	perCell := func(ts []float64) float64 {
		if len(ts) == 0 { // no such window in this run: fall back to all steps
			ts = stepS
		}
		return mean(ts) / cells * 1e9
	}
	sfx := "." + cfg.short
	m.add("bench.traced_solve_s."+cfg.name, wall, "s")
	m.add("solver.step_ms_p50"+sfx, 1e3*quantile(stepS, 0.5), "ms")
	m.add("solver.step_ms_p95"+sfx, 1e3*quantile(stepS, 0.95), "ms")
	m.add("solver.step_ns_per_cell_front"+sfx, perCell(frontT), "ns")
	m.add("solver.step_ns_per_cell_filled"+sfx, perCell(filledT), "ns")
	m.add("solver.new_stepper_ms"+sfx, 1e3*newStepS, "ms")
	if cfg.short == "1rank" {
		m.add("solver.front_steps.1rank", float64(len(frontT)), "count")
		m.add("solver.denormal_share_peak.1rank", peak, "ratio")
	}
	if cfg.threads > 1 {
		return // pool workers' tile spans overlap in time: shares would not be shares of wall
	}
	// Phase shares over all ranks; closure on the pacing rank, the one
	// that waits least in Recv.
	var loopSum float64
	pacing := 0
	recvIdx := slices.Index(stepPhases, telemetry.Recv)
	maxRecvShare := 0.0
	for r := range loopS {
		loopSum += loopS[r]
		if phaseS[r][recvIdx] < phaseS[pacing][recvIdx] {
			pacing = r
		}
		maxRecvShare = math.Max(maxRecvShare, phaseS[r][recvIdx]/loopS[r])
	}
	for pi, p := range stepPhases {
		var sum float64
		for r := range phaseS {
			sum += phaseS[r][pi]
		}
		m.add("solver.phase_share."+p.String()+sfx, sum/loopSum, "ratio")
	}
	var phases float64
	for _, v := range phaseS[pacing] {
		phases += v
	}
	m.add("solver.phase_closure_err"+sfx, math.Abs(phases-loopS[pacing])/loopS[pacing], "ratio")
	if n > 1 {
		m.add("solver.recv_wait_share"+sfx, maxRecvShare, "ratio")
	}
}

// countDenormals counts the subnormal float32 values (exponent bits zero,
// mantissa not) in the nine wavefield arrays, ghosts included.
func countDenormals(st *fd.State) (denormal, elements int) {
	for _, f := range st.Fields() {
		data := f.Data()
		elements += len(data)
		for _, v := range data {
			if b := math.Float32bits(v); b&0x7f800000 == 0 && b&0x007fffff != 0 {
				denormal++
			}
		}
	}
	return denormal, elements
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
