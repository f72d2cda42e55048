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
// would take the world down. The seeds
// reach each row of stepExclusions and each feature the rows mention running
// alone and composed (M-PML under LTS among them).
func FuzzPrepare(f *testing.F) {
	type seed struct {
		nx, ny, nz, px, py, pz   uint8
		comm, abc, threads       int8
		pmlWidth                 uint8
		lts, balance             bool
		maxK, ratio              int8
		fault, surface, fs, attn bool
		cflPct, dtSign, recvOff  int8
		stepsOff, hPct, srcOff   int8
	}
	for _, s := range []seed{
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, threads: 1, attn: true, fs: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 2, pz: 1, comm: 3, abc: 2, threads: 2, pmlWidth: 3, lts: true, ratio: 4, fs: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 2, comm: 0, abc: 2, threads: 1, pmlWidth: 3, fault: true},
		// The three exclusions.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, lts: true, fault: true},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 2, abc: 1, lts: true, surface: true, fs: true},
		{nx: 24, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 3, abc: 1, fault: true},
		// Surface output without LTS runs; zones that swallow a rank, a
		// topology the grid cannot hold, a receiver no rank owns and unknown
		// enums do not.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 2, pz: 1, comm: 2, abc: 1, surface: true, fs: true},
		{nx: 20, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 2, pmlWidth: 10},
		{nx: 6, ny: 6, nz: 6, px: 4, py: 1, pz: 1, comm: 1, abc: 1},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, recvOff: -10},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, recvOff: 18},
		{nx: 24, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 9, abc: -1, threads: -1, maxK: 3, ratio: 3, lts: true, cflPct: 120, dtSign: -1},
		{},
		// What Run cannot execute or would answer with silence: a negative
		// step count, a grid spacing of zero, a source no rank owns.
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, stepsOff: -3},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, hPct: -100},
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, srcOff: 20},
		// A grid with an empty axis is rejected as a grid, not as a
		// misplaced receiver.
		{nx: 0, ny: 16, nz: 16, px: 1, py: 1, pz: 1, comm: 1, abc: 1},
		// Run plans work-balanced LTS before it prepares: a NaN spacing has to
		// stop there too (no rate bound compares above NaN; found by this fuzz).
		{nx: 24, ny: 16, nz: 16, px: 2, py: 1, pz: 1, comm: 1, abc: 1, lts: true, balance: true, maxK: 92, hPct: 126},
	} {
		f.Add(s.nx, s.ny, s.nz, s.px, s.py, s.pz, s.comm, s.abc, s.threads, s.pmlWidth,
			s.lts, s.balance, s.maxK, s.ratio, s.fault, s.surface, s.fs, s.attn, s.cflPct, s.dtSign, s.recvOff,
			s.stepsOff, s.hPct, s.srcOff)
	}
	rock, soft := ltsContrast()
	f.Fuzz(func(t *testing.T, nx, ny, nz, px, py, pz uint8, comm, abc, threads int8, pmlWidth uint8,
		lts, balance bool, maxK, ratio int8, fault, surface, fs, attn bool, cflPct, dtSign, recvOff int8,
		stepsOff, hPct, srcOff int8) {
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
		opt := Options{
			Global: g, H: h, Steps: 2 + int(stepsOff%4),
			Topo:    mpi.Cart{PX: int(px % 4), PY: int(py % 4), PZ: int(pz % 4)},
			Comm:    CommModel(comm),
			ABC:     ABCKind(abc),
			Threads: int(threads),
			CFL:     float64(cflPct) / 100,
			Dt:      float64(dtSign) * 1e-3,

			PMLWidth: int(pmlWidth), SpongeWidth: 3,
			FreeSurface: fs, Attenuation: attn,
			LTS: LTSOptions{Enabled: lts, WorkBalance: balance, MaxK: int(maxK), MaxRateRatio: int(ratio)},
			Sources: []source.SampledSource{source.PointSource{
				GI: g.NX/4 + int(srcOff), GJ: g.NY / 2, GK: g.NZ / 2, M0: 1e15,
				Tensor: source.Explosion, STF: source.GaussianPulse(0.08, 0.02),
			}.Sample(0.002, 50)},
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
		var q cvm.Querier = splitXModel{split: float64(g.NX/2) * 100, rock: rock, soft: soft}

		_, _, perr := Prepare(opt)
		if !g.Valid() && (perr == nil || !strings.Contains(perr.Error(), "grid has an axis of no cells")) {
			t.Fatalf("the %v grid: Prepare says %v", g, perr)
		}
		res, rerr := Run(q, opt)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("Prepare says %v, Run says %v", perr, rerr)
		}
		if rerr == nil && (res == nil || res.Steps != opt.Steps) {
			t.Fatalf("Run returned %+v without an error", res)
		}
		if rerr == nil && len(res.Seismograms[0]) != opt.Steps {
			t.Fatalf("receiver %v on the %v grid: no error and a %d-sample seismogram", opt.Receivers[0], g, len(res.Seismograms[0]))
		}
		for _, x := range stepExclusions {
			if x.hit(&opt) && perr == nil {
				t.Fatalf("%s accepted", x.pair)
			}
		}
	})
}

// TestPrepareRejectsWhatRunCannotExecute: a negative step count used to panic
// inside the world, a non-positive or non-finite grid spacing ran every step
// at dt = 0, and a source outside the grid belonged to no rank — the last two
// returned an all-zero PGV map and no error. A grid with an empty axis was
// reported as a misplaced receiver.
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
