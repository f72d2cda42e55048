package solver

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// FuzzPrepare is the gate on Options → run: whatever the fields hold, the
// answer is an error (from Prepare, or from a rank's set-up through Run) or a
// two-step Run that completes — never a panic from inside a rank, where it
// would take the world down. The seeds reach each feature running alone and
// composed, and each field's invalid values: Dt and CFL of NaN or +Inf among
// them, which are Prepare's errors, and a Dt above the stable step, which is
// every rank's set-up error.
func FuzzPrepare(f *testing.F) {
	type seed struct {
		nx, ny, nz, px, py, pz   uint8
		comm, abc                int8
		pmlWidth                 uint8
		fault, surface, fs, attn bool
		cflPct, dtSign, recvOff  int8
		stepsOff, hPct, srcOff   int8
		srcM0, srcDt             int8
	}
	for _, s := range []seed{
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, attn: true, fs: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 2, pz: 1, comm: 3, abc: 2, pmlWidth: 3, fs: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 2, comm: 0, abc: 2, pmlWidth: 3, fault: true},
		// DFR under the overlap model, once an exclusion, runs: alone, and
		// with M-PML zones on four ranks.
		{nx: 24, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 3, abc: 1, fault: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 2, comm: 3, abc: 2, pmlWidth: 3, fault: true, attn: true},
		// DFR with Surface output, and Surface output under M-PML on the
		// overlap model.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, fault: true, surface: true, fs: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 3, abc: 2, pmlWidth: 3, surface: true, fs: true},
		// Surface output runs; zones that swallow a rank, a topology the grid
		// cannot hold, a receiver no rank owns and unknown enums do not.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 2, pz: 1, comm: 2, abc: 1, surface: true, fs: true},
		{nx: 20, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 2, pmlWidth: 10},
		{nx: 6, ny: 6, nz: 6, px: 4, py: 1, pz: 1, comm: 1, abc: 1},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, recvOff: -10},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, recvOff: 18},
		{nx: 24, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 9, abc: -1, cflPct: 120, dtSign: -1},
		{},
		// What Run cannot execute or would answer with silence: a negative
		// step count, a grid spacing of zero, a source no rank owns.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, stepsOff: -3},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, hPct: -100},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, srcOff: 20},
		// A grid with an empty axis is rejected as a grid, not as a
		// misplaced receiver.
		{nx: 0, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 1, abc: 1},
		// A NaN spacing, above which no stable step compares.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, hPct: 126},
		// A NaN step and a NaN CFL factor, which panicked in the source's
		// sample index, and a step of 1e300, which did too and is now above
		// the stable step, as is 0.1 (dtSign 100).
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, dtSign: 126},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, cflPct: 126},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, dtSign: 125},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 2, pmlWidth: 3, dtSign: 100},
		// A source that cannot radiate: a NaN moment ran to a PGV of 0 and
		// one of 1e300 to +Inf, both without an error; a sample step of
		// zero or NaN.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, srcM0: 126},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, srcM0: 125},
		{nx: 24, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 1, abc: 1, srcDt: -1},
		{nx: 24, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 1, abc: 1, srcDt: 126},
	} {
		f.Add(s.nx, s.ny, s.nz, s.px, s.py, s.pz, s.comm, s.abc, s.pmlWidth,
			s.fault, s.surface, s.fs, s.attn, s.cflPct, s.dtSign, s.recvOff,
			s.stepsOff, s.hPct, s.srcOff, s.srcM0, s.srcDt)
	}
	// special maps the top values of an int8 to 1e300, NaN and +Inf.
	special := func(v int8, scale float64) float64 {
		switch v {
		case 125:
			return 1e300
		case 126:
			return math.NaN()
		case 127:
			return math.Inf(1)
		}
		return float64(v) * scale
	}
	f.Fuzz(func(t *testing.T, nx, ny, nz, px, py, pz uint8, comm, abc int8, pmlWidth uint8,
		fault, surface, fs, attn bool, cflPct, dtSign, recvOff int8,
		stepsOff, hPct, srcOff, srcM0, srcDt int8) {
		// Bounded so that one input is milliseconds: ≤ 32³ cells, ≤ 27 ranks,
		// ≤ 5 steps.
		g := grid.Dims{NX: int(nx % 33), NY: int(ny % 33), NZ: int(nz % 33)}
		h := 100 + float64(hPct)
		switch hPct {
		case 126:
			h = math.NaN()
		case 127:
			h = math.Inf(1)
		}
		// A zero srcM0 or srcDt keeps the source's moment or sample step.
		m0, sdt := 1e15, 0.002
		if srcM0 != 0 {
			m0 = special(srcM0, 1e13)
		}
		if srcDt != 0 {
			sdt = special(srcDt, 2e-3)
		}
		opt := Options{
			Global: g, H: h, Steps: 2 + int(stepsOff%4),
			Topo: mpi.Cart{PX: int(px % 4), PY: int(py % 4), PZ: int(pz % 4)},
			Comm: CommModel(comm),
			ABC:  ABCKind(abc),
			CFL:  special(cflPct, 1e-2),
			Dt:   special(dtSign, 1e-3),

			pmlWidth: int(pmlWidth), SpongeWidth: 3,
			FreeSurface: fs, Attenuation: attn,
			Sources: []source.SampledSource{source.PointSource{
				GI: g.NX/4 + int(srcOff), GJ: g.NY / 2, GK: g.NZ / 2, M0: m0,
				Tensor: source.Explosion, STF: source.GaussianPulse(0.08, 0.02),
			}.Sample(sdt, 50)},
			Receivers: [][3]int{{g.NX/4 + int(recvOff), g.NY / 2, 0}},
			TrackPGV:  true,
		}
		if fault {
			// A window over the middle of whatever the dims give, valid or
			// not: an impossible one must come back as an error too.
			opt.Fault = overstressedFault(g.NY/2, 2, max(g.NX-4, 0), 2, max(g.NZ-4, 0))
		}
		if surface {
			opt.Surface = &SurfaceOptions{FS: surfaceFS(), Path: "out/surface.bin"}
		}
		q := basinOverRock(float64(g.NX/2) * 100)

		_, _, perr := Prepare(opt)
		if !g.Valid() && (perr == nil || !strings.Contains(perr.Error(), "grid has an axis of no cells")) {
			t.Fatalf("the %v grid: Prepare says %v", g, perr)
		}
		if perr == nil && (math.IsNaN(opt.Dt+opt.CFL) || math.IsInf(opt.Dt+opt.CFL, 0)) {
			t.Fatalf("Prepare accepted Dt %g, CFL %g", opt.Dt, opt.CFL)
		}
		if src := opt.Sources[0]; perr == nil && !(src.Dt > 0 && src.Dt < math.Inf(1)) {
			t.Fatalf("Prepare accepted a source sampled at Dt %g", src.Dt)
		}
		for _, r := range opt.Sources[0].Rate {
			for _, v := range r {
				if perr == nil && (math.IsNaN(float64(v)) || math.IsInf(float64(v), 0)) {
					t.Fatalf("Prepare accepted a source rate of %g (M0 %g)", v, m0)
				}
			}
		}
		res, rerr := Run(q, opt)
		if perr == nil && opt.Dt > 0 {
			// Prepare builds no medium; every rank's set-up holds an explicit
			// step to the stable one at safety factor 1.
			if bound := stableDtBound(t, q, opt); opt.Dt > bound {
				if rerr == nil || !strings.Contains(rerr.Error(), "stable step") {
					t.Fatalf("Dt %g above the stable %g: Run says %v", opt.Dt, bound, rerr)
				}
				return
			}
		}
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("Prepare says %v, Run says %v", perr, rerr)
		}
		if rerr == nil && (res == nil || res.Steps != opt.Steps) {
			t.Fatalf("Run returned %+v without an error", res)
		}
		if rerr == nil && len(res.Seismograms[0]) != opt.Steps {
			t.Fatalf("receiver %v on the %v grid: no error and a %d-sample seismogram", opt.Receivers[0], g, len(res.Seismograms[0]))
		}
	})
}

// TestPrepareRejectsWhatRunCannotExecute: a negative step count used to panic
// inside the world, a non-positive or non-finite grid spacing ran every step
// at dt = 0, and a source outside the grid belonged to no rank — the last two
// returned an all-zero PGV map and no error. A grid with an empty axis was
// reported as a misplaced receiver. A source sampled at a step that is not
// positive and finite, or holding a NaN or infinite rate, ran: a NaN
// wavefield reports a PGV of 0.
func TestPrepareRejectsWhatRunCannotExecute(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	for name, mutate := range map[string]func(*Options){
		"Steps -1":            func(o *Options) { o.Steps = -1 },
		"H 0":                 func(o *Options) { o.H = 0 },
		"H -100":              func(o *Options) { o.H = -100 },
		"H NaN":               func(o *Options) { o.H = math.NaN() },
		"H +Inf":              func(o *Options) { o.H = math.Inf(1) },
		"source past NX":      func(o *Options) { o.Sources[0].GI = o.Global.NX },
		"source above k = 0":  func(o *Options) { o.Sources[0].GK = -1 },
		"second source at -1": func(o *Options) { o.Sources = append(o.Sources, o.Sources[0]); o.Sources[1].GJ = -1 },
		"source Dt 0":         func(o *Options) { o.Sources[0].Dt = 0 },
		"source Dt -0.002":    func(o *Options) { o.Sources[0].Dt = -0.002 },
		"source Dt NaN":       func(o *Options) { o.Sources[0].Dt = math.NaN() },
		"source Dt +Inf":      func(o *Options) { o.Sources[0].Dt = math.Inf(1) },
		"source rate NaN":     func(o *Options) { o.Sources[0].Rate[3][0] = float32(math.NaN()) },
		"source rate +Inf":    func(o *Options) { o.Sources[0].Rate[0][5] = float32(math.Inf(1)) },
		"source rate -Inf":    func(o *Options) { o.Sources[0].Rate[7][2] = float32(math.Inf(-1)) },
		"NX 0":                func(o *Options) { o.Global.NX = 0 },
		"NZ -4":               func(o *Options) { o.Global.NZ = -4 },
	} {
		opt := baseOptions(mpi.NewCart(2, 1, 1))
		opt.Steps = 2
		mutate(&opt)
		if _, _, err := Prepare(opt); err == nil {
			t.Errorf("%s: Prepare accepted it", name)
		}
		if res, err := Run(q, opt); err == nil {
			t.Errorf("%s: Run returned %d steps and no error", name, res.Steps)
		}
	}
}
