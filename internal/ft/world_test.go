package ft

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core/rupture"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
}

func worldSolverOptions(topo mpi.Cart, comm solver.CommModel) solver.Options {
	g := grid.Dims{NX: 20, NY: 20, NZ: 14}
	src := source.PointSource{
		GI: 10, GJ: 10, GK: 7,
		M0:     1e15,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(0.08, 0.02),
	}
	return solver.Options{
		Global:      g,
		H:           100,
		Steps:       40,
		Topo:        topo,
		Comm:        comm,
		ABC:         solver.SpongeABC,
		SpongeWidth: 4,
		FreeSurface: true,
		Attenuation: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 200)},
		Receivers:   [][3]int{{5, 10, 7}, {15, 10, 7}, {10, 5, 7}, {10, 10, 2}},
		TrackPGV:    true,
	}
}

func worldQuerier() cvm.Querier { return cvm.SoCal(2000, 2000, 1400, 400) }

// assertBitIdentical requires got's observables to match ref exactly —
// not approximately: the headline property of coordinated recovery is
// that replay reproduces the failure-free computation bit for bit.
func assertBitIdentical(t *testing.T, ref, got *solver.Result) {
	t.Helper()
	if got == nil {
		t.Fatal("nil recovered result")
	}
	if len(got.Seismograms) != len(ref.Seismograms) {
		t.Fatalf("seismogram count %d, want %d", len(got.Seismograms), len(ref.Seismograms))
	}
	for r := range ref.Seismograms {
		if len(got.Seismograms[r]) != len(ref.Seismograms[r]) {
			t.Fatalf("receiver %d: %d samples, want %d",
				r, len(got.Seismograms[r]), len(ref.Seismograms[r]))
		}
		for n, v := range ref.Seismograms[r] {
			if got.Seismograms[r][n] != v {
				t.Fatalf("receiver %d sample %d: %v, want %v (not bit-identical)",
					r, n, got.Seismograms[r][n], v)
			}
		}
	}
	for name, pair := range map[string][2][]float64{
		"PGVH": {ref.PGVH, got.PGVH},
		"PGVX": {ref.PGVX, got.PGVX},
		"PGVY": {ref.PGVY, got.PGVY},
	} {
		if len(pair[1]) != len(pair[0]) {
			t.Fatalf("%s length %d, want %d", name, len(pair[1]), len(pair[0]))
		}
		for i, v := range pair[0] {
			if pair[1][i] != v {
				t.Fatalf("%s[%d] = %g, want %g (not bit-identical)", name, i, pair[1][i], v)
			}
		}
	}
}

// A fault-free RunWorld is just the solver plus checkpoints: identical
// result, zero recoveries, one checkpoint per rank per interval.
func TestWorldCleanMatchesSolverRun(t *testing.T) {
	q := worldQuerier()
	opt := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	ref, err := solver.Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunWorld(WorldOptions{
		Solver: opt, Query: q, FS: testFS(), Dir: "ckpt", Interval: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 0 || stats.Rebuilds != 0 {
		t.Fatalf("clean run recovered: %+v", stats)
	}
	// Saves at steps 0, 8, 16, 24, 32 on each of 2 ranks.
	if stats.Checkpoints != 10 {
		t.Fatalf("checkpoints = %d, want 10", stats.Checkpoints)
	}
	assertBitIdentical(t, ref, res)
}

// The acceptance soak matrix: every fault class recovers to the exact
// failure-free observables under every comm model tested.
func TestChaosSoakMatrix(t *testing.T) {
	q := worldQuerier()
	topo := mpi.NewCart(2, 1, 1)

	classes := []struct {
		name   string
		chaos  *mpi.ChaosPlan
		faults *pfs.FaultPlan
	}{
		// Whole-rank crash mid-run: peers unwind on the abort, the world
		// rolls back to the last coordinated checkpoint and replays.
		{"rank-crash",
			&mpi.ChaosPlan{CrashAtSend: map[int]uint64{1: 37}}, nil},
		// Rank crash while checkpoint files are silently torn: recovery
		// must elect a step whose files verify on every rank.
		{"torn-checkpoint",
			&mpi.ChaosPlan{CrashAtSend: map[int]uint64{0: 61}},
			&pfs.FaultPlan{Seed: 5, TornWriteProb: 0.25}},
	}
	models := []solver.CommModel{solver.Asynchronous, solver.AsyncReduced}

	for _, model := range models {
		opt := worldSolverOptions(topo, model)
		ref, err := solver.Run(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range classes {
			t.Run(fmt.Sprintf("%s/%v", tc.name, model), func(t *testing.T) {
				fs := testFS()
				if tc.faults != nil {
					fs.InjectFaults(*tc.faults)
				}
				res, stats, err := RunWorld(WorldOptions{
					Solver: opt, Query: q, FS: fs, Dir: "ckpt", Interval: 8,
					Chaos: tc.chaos,
				})
				if err != nil {
					t.Fatalf("RunWorld: %v (stats %+v)", err, stats)
				}
				if stats.Recoveries == 0 {
					t.Fatalf("no recovery happened; fault class vacuous (stats %+v)", stats)
				}
				if tc.faults != nil && fs.FaultStats().TornWrites == 0 {
					t.Fatalf("torn-write class tore nothing: %+v", fs.FaultStats())
				}
				assertBitIdentical(t, ref, res)
			})
		}
	}
}

// A crash during rank setup (before the Stepper exists) cannot roll
// back — NewStepper's collectives need every rank — so the leader must
// rebuild the world from scratch, and replay still lands bit-identical.
func TestCrashDuringSetupRebuilds(t *testing.T) {
	q := worldQuerier()
	opt := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	ref, err := solver.Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunWorld(WorldOptions{
		Solver: opt, Query: q, FS: testFS(), Dir: "ckpt", Interval: 8,
		Chaos: &mpi.ChaosPlan{CrashAtSend: map[int]uint64{1: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebuilds == 0 {
		t.Fatalf("setup crash should force a rebuild (stats %+v)", stats)
	}
	assertBitIdentical(t, ref, res)
}

// A set-up error every rank returns — here an explicit Dt above the stable
// step — is a rejection, not a fault: RunWorld returns solver.Run's error
// without a rebuild, or after the one a crash in the set-up's collective
// forces, where it used to rebuild until the recovery budget ran out.
func TestUnstableDtRejectedWithoutReplay(t *testing.T) {
	q := worldQuerier()
	opt := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	opt.Dt = 0.1
	_, want := solver.Run(q, opt)
	if want == nil {
		t.Fatal("solver.Run accepted Dt 0.1")
	}
	for _, tc := range []struct {
		name     string
		chaos    *mpi.ChaosPlan
		rebuilds int
	}{{"clean", nil, 0}, {"setup crash", &mpi.ChaosPlan{CrashAtSend: map[int]uint64{1: 1}}, 1}} {
		_, stats, err := RunWorld(WorldOptions{
			Solver: opt, Query: q, FS: testFS(), Dir: "ckpt", Interval: 8, Chaos: tc.chaos,
		})
		if err == nil || err.Error() != want.Error() || errors.Is(err, ErrRecoveryBudget) {
			t.Errorf("%s: RunWorld says %v, solver.Run %v", tc.name, err, want)
		}
		if stats.Rebuilds != tc.rebuilds || stats.Checkpoints != 0 {
			t.Errorf("%s: %d rebuilds, %d checkpoints, want %d and 0", tc.name, stats.Rebuilds, stats.Checkpoints, tc.rebuilds)
		}
	}
}

// The acceptance scenario for FindLatestValid at world scope: the
// newest coordinated checkpoint is damaged — truncated on one rank,
// bit-flipped on the other — so recovery must elect the PREVIOUS
// coordinated step and replay from there.
func TestDamagedNewestCheckpointRollsBackWorld(t *testing.T) {
	q := worldQuerier()
	topo := mpi.NewCart(2, 1, 1)
	opt := worldSolverOptions(topo, solver.Asynchronous)
	ref, err := solver.Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: clean run (chaos armed but inert so it counts sends)
	// leaves coordinated checkpoints at steps 0..32 on the shared FS.
	fsys := testFS()
	_, pilot, err := RunWorld(WorldOptions{
		Solver: opt, Query: q, FS: fsys, Dir: "ckpt", Interval: 8,
		Chaos: &mpi.ChaosPlan{},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Damage the newest step (32): truncate rank 0's file, flip a
	// payload bit in rank 1's. The election must skip to 24.
	p0 := checkpoint.FileName("ckpt", 0, 32)
	raw := make([]byte, fsys.Size(p0))
	if err := fsys.ReadAt(p0, 0, raw); err != nil {
		t.Fatal(err)
	}
	fsys.Remove(p0)
	if err := fsys.WriteAt(p0, 0, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	p1 := checkpoint.FileName("ckpt", 1, 32)
	flip := make([]byte, fsys.Size(p1))
	if err := fsys.ReadAt(p1, 0, flip); err != nil {
		t.Fatal(err)
	}
	flip[60] ^= 0x20
	if err := fsys.WriteAt(p1, 0, flip); err != nil {
		t.Fatal(err)
	}
	if got := checkpoint.FindLatestValid(fsys, "ckpt", topo.Size()); got != 24 {
		t.Fatalf("FindLatestValid = %d after damage, want 24", got)
	}

	// Phase 2 on the same FS: crash rank 1 about 68%% through its send
	// budget — between the step-24 re-save and step 32, so the damaged
	// files are still the newest on disk when the leader elects.
	crashAt := uint64(float64(pilot.Chaos.Delivered) / 2 * 0.68)
	res, stats, err := RunWorld(WorldOptions{
		Solver: opt, Query: q, FS: fsys, Dir: "ckpt", Interval: 8,
		Chaos: &mpi.ChaosPlan{CrashAtSend: map[int]uint64{1: crashAt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 || stats.Rebuilds != 0 {
		t.Fatalf("want exactly one rollback recovery, got %+v", stats)
	}
	if len(stats.RestartSteps) != 1 || stats.RestartSteps[0] != 24 {
		t.Fatalf("elected restart steps %v, want [24] (crashAt=%d)", stats.RestartSteps, crashAt)
	}
	assertBitIdentical(t, ref, res)
}

// panicQuerier is a velocity model every query of which panics: a fault
// that recurs in every incarnation of a rank's set-up.
type panicQuerier struct{ panics *atomic.Int64 }

func (q panicQuerier) Query(x, y, z float64) cvm.Material {
	q.panics.Add(1)
	panic("ft test: model unreadable")
}

// When a fault recurs in every incarnation, the coordinated protocol must
// give up with ErrRecoveryBudget, on every rank: RunWorld returning at all
// shows that no rank goroutine is left parked at the coordinator.
func TestRecoveryBudgetExhausted(t *testing.T) {
	var panics atomic.Int64
	opt := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	_, stats, err := RunWorld(WorldOptions{
		Solver: opt, Query: panicQuerier{&panics}, FS: testFS(), Dir: "ckpt", Interval: 8,
	})
	if !errors.Is(err, ErrRecoveryBudget) {
		t.Fatalf("err = %v, want ErrRecoveryBudget", err)
	}
	if stats.Recoveries != maxRecoveries+1 {
		t.Fatalf("recoveries = %d, want maxRecoveries+1 = %d", stats.Recoveries, maxRecoveries+1)
	}
	if n := panics.Load(); n < maxRecoveries+1 {
		t.Fatalf("the model panicked %d times over %d incarnations: the fault did not recur", n, maxRecoveries+1)
	}
}

// A rank can crash at any send — inside either phase's exchange, with its
// own and its neighbour's messages half posted — and the surviving Steppers
// are reused after the rollback. The sweep crashes either rank of a 2x1x1
// world at every send of its first seven steps (two a step), on both sides
// of the checkpoint at step 4: every recovery must replay to the exact bits
// of the clean run, whatever the aborted exchange left in flight.
func TestWorldCrashAtEverySend(t *testing.T) {
	q := worldQuerier()
	opt := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	ref, err := solver.Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		for at := uint64(3); at <= 14; at++ {
			t.Run(fmt.Sprintf("rank%d/send%d", rank, at), func(t *testing.T) {
				res, stats, err := RunWorld(WorldOptions{
					Solver: opt, Query: q, FS: testFS(), Dir: "ckpt", Interval: 4,
					Chaos: &mpi.ChaosPlan{CrashAtSend: map[int]uint64{rank: at}},
				})
				if err != nil {
					t.Fatalf("RunWorld: %v (stats %+v)", err, stats)
				}
				if stats.Recoveries == 0 {
					t.Fatalf("the crash never fired: %+v", stats)
				}
				assertBitIdentical(t, ref, res)
			})
		}
	}
}

// A checkpoint is the rank's sections, so M-PML zone splits and a DFR fault's
// split velocities, slip history and clock roll back like the wavefield: the
// sweep crashes rank 1 at sends on both sides of several checkpoint steps,
// and every recovery must be a rollback that replays at most one interval a
// rank and lands on the bits of solver.Run — moment rate, final slip and the
// slip-rate histories recorded every other step included — the fault under
// the overlap model too.
func TestWorldMPMLAndDFRCrashRollback(t *testing.T) {
	// M-PML at its production width needs more than ten cells a rank
	// along each absorbing axis, so its grid is wider, the source central.
	mpml := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	mpml.ABC, mpml.Global = solver.MPMLABC, grid.Dims{NX: 28, NY: 24, NZ: 16}
	mpml.Sources[0].GI, mpml.Sources[0].GJ = 14, 12

	dfr := worldSolverOptions(mpi.NewCart(2, 1, 1), solver.Asynchronous)
	ni, nk := 12, 8
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := range tau {
		tau[k] = make([]float64, ni)
		sn[k] = make([]float64, ni)
		fr[k] = make([]rupture.Friction, ni)
		for i := range tau[k] {
			// Overstressed on a patch at the window's low end, just below
			// strength beyond it: rupture spreads from the patch and reaches
			// new nodes between checkpoints, so their rupture times are
			// stamped by a clock that was rolled back.
			sn[k][i], tau[k][i] = 120e6, 81e6
			if i < 3 {
				tau[k][i] = 84e6
			}
			fr[k][i] = rupture.Friction{MuS: 0.677, MuD: 0.525, Dc: 0.02}
		}
	}
	dfr.Sources = nil
	dfr.Fault = &solver.FaultSpec{J0: 10, I0: 4, I1: 4 + ni, K0: 3, K1: 3 + nk,
		Tau0: tau, SigmaN: sn, Friction: fr, RecordEvery: 2}

	// The same fault under the overlap model: its nodes in the seam strips
	// are updated before the post, the rest after it.
	dfrOverlap := dfr
	dfrOverlap.Comm = solver.AsyncOverlap

	q := worldQuerier()
	for _, tc := range []struct {
		name string
		opt  solver.Options
	}{{"mpml", mpml}, {"dfr", dfr}, {"dfr-overlap", dfrOverlap}} {
		ref, err := solver.Run(q, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []uint64{30, 40, 50, 60} {
			t.Run(fmt.Sprintf("%s/send%d", tc.name, at), func(t *testing.T) {
				const interval, ranks = 8, 2
				res, stats, err := RunWorld(WorldOptions{
					Solver: tc.opt, Query: q, FS: testFS(), Dir: "ckpt", Interval: interval,
					Chaos: &mpi.ChaosPlan{CrashAtSend: map[int]uint64{1: at}},
				})
				if err != nil {
					t.Fatalf("RunWorld: %v (stats %+v)", err, stats)
				}
				if stats.Recoveries == 0 || stats.Rebuilds != 0 || stats.Checkpoints == 0 {
					t.Fatalf("want every recovery a rollback onto a checkpoint: %+v", stats)
				}
				if stats.ReplayedSteps > stats.Recoveries*ranks*interval {
					t.Errorf("%d steps replayed over %d recoveries of %d ranks, more than one %d-step interval each",
						stats.ReplayedSteps, stats.Recoveries, ranks, interval)
				}
				assertBitIdentical(t, ref, res)
				for name, pair := range map[string][2]any{
					"MomentRate":    {ref.MomentRate, res.MomentRate},
					"FaultSlip":     {ref.FaultSlip, res.FaultSlip},
					"FaultPeakRate": {ref.FaultPeakRate, res.FaultPeakRate},
					"FaultRupTime":  {ref.FaultRupTime, res.FaultRupTime},
					"SlipNodes":     {ref.SlipNodes, res.SlipNodes},
					"SlipSeries":    {ref.SlipSeries, res.SlipSeries},
				} {
					if !reflect.DeepEqual(pair[0], pair[1]) {
						t.Errorf("%s not bit-identical to solver.Run", name)
					}
				}
			})
		}
	}
}

// TestWorld16RankCrashRecovery runs coordinated recovery at 16 ranks
// (4x2x2) — the first world shape where the combining-tree barrier and
// binomial collectives have depth > 2 and internal tree nodes with two
// children. A rank crashes mid-run, the abort must unwind 15 peers
// parked across the tree (not a single convoy condvar), and Reset must
// rearm every tree node so replay lands bit-identical. This pins the
// scale-refactor collectives against the recovery protocol, which is
// deliberately NOT built on them.
func TestWorld16RankCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("16-rank recovery run skipped in -short")
	}
	q := worldQuerier()
	opt := worldSolverOptions(mpi.NewCart(4, 2, 2), solver.AsyncReduced)
	ref, err := solver.Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := RunWorld(WorldOptions{
		Solver: opt, Query: q, FS: testFS(), Dir: "ckpt", Interval: 8,
		Chaos: &mpi.ChaosPlan{CrashAtSend: map[int]uint64{11: 45}},
	})
	if err != nil {
		t.Fatalf("RunWorld: %v (stats %+v)", err, stats)
	}
	if stats.Recoveries == 0 {
		t.Fatalf("crash never fired; fault vacuous (stats %+v)", stats)
	}
	assertBitIdentical(t, ref, res)
}
