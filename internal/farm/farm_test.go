package farm

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// testSpec is a tiny, fast ensemble configuration for unit tests.
func testSpec() EnsembleSpec {
	return EnsembleSpec{
		Dims: grid.Dims{NX: 12, NY: 12, NZ: 10}, H: 100, Steps: 12, Ranks: 1,
	}
}

func newTestFarm(t *testing.T, cfg Config) *Farm {
	t.Helper()
	if cfg.Spec.Dims.NX == 0 {
		cfg.Spec = testSpec()
	}
	st := NewStore(pfs.New(pfs.Jaguar()), nil)
	f := New(cfg, st, NewSurrogate(DefaultRange()))
	t.Cleanup(f.Close)
	return f
}

func TestFarmRunsCleanEnsemble(t *testing.T) {
	rec := telemetry.NewRecorder(0, 0)
	f := newTestFarm(t, Config{Workers: 3, Rec: rec})
	scs := LatinHypercube(6, 1, DefaultRange())
	keys := make([]string, len(scs))
	for i, sc := range scs {
		keys[i] = f.Submit(sc)
	}
	f.Wait()
	st := f.Stats()
	if st.Completed != 6 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
	for _, k := range keys {
		p, err := f.Store().Get(k)
		if err != nil {
			t.Fatalf("product %s: %v", k, err)
		}
		if !SanePGV(p) || p.Peak <= 0 {
			t.Fatalf("product %s insane: peak %g", k, p.Peak)
		}
	}
	if f.Surrogate().N() != 6 {
		t.Fatalf("surrogate trained on %d points", f.Surrogate().N())
	}
	if sec, n := rec.PhaseTotal(telemetry.Job); n != 6 || sec <= 0 {
		t.Fatalf("Job phase: %g s over %d spans", sec, n)
	}
	// Resubmission is deduplicated by content address.
	f.Submit(scs[0])
	f.Wait()
	if got := f.Stats(); got.Duplicates != 1 || got.Completed != 6 {
		t.Fatalf("resubmit not deduplicated: %+v", got)
	}
}

// TestFarmDeterministicProducts: the same scenario computed twice yields
// byte-identical artifacts — the foundation of the zero-wrong-results
// audit in the benchmark.
func TestFarmDeterministicProducts(t *testing.T) {
	sc := Scenario{Mw: 6.4, HypoX: 0.5, HypoY: 0.4, HypoZ: 0.5, VsScale: 1.02}
	f1 := newTestFarm(t, Config{Workers: 1})
	f1.Submit(sc)
	f1.Wait()
	p1, err := f1.Store().Get(sc.Key())
	if err != nil {
		t.Fatal(err)
	}
	f2 := newTestFarm(t, Config{Workers: 2})
	f2.Submit(sc)
	f2.Wait()
	p2, err := f2.Store().Get(sc.Key())
	if err != nil {
		t.Fatal(err)
	}
	if ProductChecksum(p1) != ProductChecksum(p2) {
		t.Fatal("same scenario produced different artifacts")
	}
}

// TestFarmWorkerCrashIsolated: chaos crashes kill workers mid-job; the
// supervisor must replace them and finish the full ensemble with every
// product intact, while other in-flight jobs are untouched.
func TestFarmWorkerCrashIsolated(t *testing.T) {
	f := newTestFarm(t, Config{
		Workers: 3, MaxAttempts: 8,
		Chaos: &ChaosPlan{Seed: 5, CrashProb: 0.35, MaxFaultsPerJob: 2},
	})
	scs := LatinHypercube(8, 2, DefaultRange())
	for _, sc := range scs {
		f.Submit(sc)
	}
	f.Wait()
	st := f.Stats()
	if st.Chaos.Crashes == 0 {
		t.Fatal("no crashes injected; test is vacuous")
	}
	if st.WorkerCrashes != st.Chaos.Crashes || st.WorkersReplaced != st.WorkerCrashes {
		t.Fatalf("crash accounting: %+v", st)
	}
	if st.Completed != 8 || st.Failed != 0 {
		t.Fatalf("ensemble incomplete under crashes: %+v", st)
	}
	if bad := f.Store().VerifyAll(); len(bad) != 0 {
		t.Fatalf("corrupt artifacts after crash storm: %v", bad)
	}
}

// TestFarmHungJobDeadline: chaos hangs stall attempts past the deadline;
// the supervisor must abandon and retry them, completing the ensemble.
func TestFarmHungJobDeadline(t *testing.T) {
	f := newTestFarm(t, Config{
		Workers: 2, MaxAttempts: 8, Deadline: 60 * time.Millisecond,
		Chaos: &ChaosPlan{Seed: 9, HangProb: 0.4, HangDur: 300 * time.Millisecond,
			MaxFaultsPerJob: 2},
	})
	scs := LatinHypercube(6, 3, DefaultRange())
	for _, sc := range scs {
		f.Submit(sc)
	}
	f.Wait()
	st := f.Stats()
	if st.Chaos.Hangs == 0 {
		t.Fatal("no hangs injected; test is vacuous")
	}
	if st.DeadlineMisses == 0 {
		t.Fatal("hangs did not trip the deadline")
	}
	if st.Completed != 6 || st.Failed != 0 {
		t.Fatalf("ensemble incomplete under hangs: %+v", st)
	}
	if st.Retries == 0 || st.BackoffSec <= 0 {
		t.Fatalf("deadline misses did not retry with backoff: %+v", st)
	}
}

// TestFarmAuditHealsCorruption: post-store chaos corrupts artifacts at
// rest; the audit must find, re-queue and heal every one.
func TestFarmAuditHealsCorruption(t *testing.T) {
	f := newTestFarm(t, Config{
		Workers: 2, MaxAttempts: 6,
		Chaos: &ChaosPlan{Seed: 13, CorruptProb: 0.5, MaxFaultsPerJob: 1},
	})
	scs := LatinHypercube(8, 4, DefaultRange())
	for _, sc := range scs {
		f.Submit(sc)
	}
	f.Wait()
	if f.Stats().Chaos.Corruptions == 0 {
		t.Fatal("no corruption injected; test is vacuous")
	}
	if bad := f.Store().VerifyAll(); len(bad) == 0 {
		t.Fatal("corruption injected but audit found nothing")
	}
	healed := f.Audit(4)
	if healed == 0 {
		t.Fatal("audit healed nothing")
	}
	// Chaos budget (MaxFaultsPerJob=1) is spent, so re-runs stay clean.
	if bad := f.Store().VerifyAll(); len(bad) != 0 {
		t.Fatalf("artifacts still corrupt after audit: %v", bad)
	}
	if f.Stats().CorruptRequeued != healed {
		t.Fatalf("requeue accounting: %+v healed=%d", f.Stats(), healed)
	}
}

// TestFarmBreakerTripsOnDoomedClass: a scenario class that always fails
// (deadline too short for anything) must trip its breaker; submitting a
// mixed ensemble shows other classes complete.
func TestFarmBreakerTrips(t *testing.T) {
	// Chaos hangs every attempt of every job (budget >> attempts), so all
	// jobs exhaust MaxAttempts and fail — tripping breakers fast.
	f := newTestFarm(t, Config{
		Workers: 2, MaxAttempts: 2, Deadline: 20 * time.Millisecond,
		breaker: breakerConfig{threshold: 2, cooldown: time.Hour},
		Chaos: &ChaosPlan{Seed: 7, HangProb: 1.0, HangDur: 200 * time.Millisecond,
			MaxFaultsPerJob: 1000},
	})
	for _, sc := range LatinHypercube(4, 8, DefaultRange()) {
		f.Submit(sc)
	}
	f.Wait()
	st := f.Stats()
	if st.Failed != 4 || st.Completed != 0 {
		t.Fatalf("doomed ensemble: %+v", st)
	}
	if st.BreakerTrips == 0 {
		t.Fatal("no breaker tripped under persistent failure")
	}
	states := f.Breakers().States()
	open := 0
	for _, s := range states {
		if s == "open" {
			open++
		}
	}
	if open == 0 {
		t.Fatalf("no class open: %v", states)
	}
}

// TestAttemptFailedCountsBreakerTrips: Stats' breaker trips are the ones
// attemptFailed hears OnFailure report. Two failures trip a threshold-2
// breaker once, a third inside the cooldown trips nothing, and a rejected
// job between them says nothing to the breaker.
func TestAttemptFailedCountsBreakerTrips(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 1, MaxAttempts: 1,
		breaker: breakerConfig{threshold: 2, cooldown: time.Hour}})
	sc := Scenario{Mw: 6.6, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	causes := []error{errors.New("crash"), rejectedError{errors.New("bad options")},
		errors.New("crash"), errors.New("crash")}
	f.mu.Lock()
	for i := range causes {
		f.jobs[fmt.Sprint("job", i)] = &jobState{sc: sc, status: jobRunning, attempts: 1}
		f.inflight++
	}
	f.mu.Unlock()
	for i, cause := range causes {
		f.attemptFailed(fmt.Sprint("job", i), cause)
	}
	if st := f.Stats(); st.BreakerTrips != 1 || st.Failed != len(causes) {
		t.Fatalf("stats %+v, want 1 breaker trip and %d failed", st, len(causes))
	}
	if f.Breakers().States()[sc.Class()] != "open" {
		t.Fatalf("class %s not open: %v", sc.Class(), f.Breakers().States())
	}
}

// TestFarmRejectedSpecFailsOnce: a configuration solver.Prepare refuses
// (64 ranks on a 12-cell axis) can never heal, so each job fails on its
// first attempt with no retry, and the class's breaker hears nothing — a
// valid job of the same class submitted afterwards completes although
// the breaker would have opened for an hour after two failures.
func TestFarmRejectedSpecFailsOnce(t *testing.T) {
	bad := testSpec()
	bad.Ranks = 64
	f := newTestFarm(t, Config{Spec: bad, Workers: 2,
		breaker: breakerConfig{threshold: 2, cooldown: time.Hour}})
	const n = 4
	for i := 0; i < n; i++ {
		f.Submit(Scenario{Mw: 6.1 + 0.1*float64(i), HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1})
	}
	f.Wait()
	st := f.Stats()
	if st.Attempts != n || st.Retries != 0 || st.BreakerTrips != 0 || st.Failed != n {
		t.Fatalf("rejected spec: %+v", st)
	}

	// The farm is idle: no attempt or requeue timer reads the spec now.
	f.mu.Lock()
	f.cfg.Spec = testSpec()
	f.mu.Unlock()
	f.Submit(Scenario{Mw: 6.6, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1})
	f.Wait()
	if st := f.Stats(); st.Completed != 1 || st.BreakerParks != 0 {
		t.Fatalf("valid job behind the rejected ones: %+v", st)
	}
}

// A scenario whose source cannot radiate (its moment overflows, or is NaN)
// reaches the farm only through Submit — /hazard refuses it — and
// solver.Prepare rejects the job: one attempt each, no retry, no breaker
// feedback.
func TestFarmUnradiatingScenarioFailsOnce(t *testing.T) {
	f := newTestFarm(t, Config{Workers: 1, breaker: breakerConfig{threshold: 1, cooldown: time.Hour}})
	for _, mw := range []float64{math.NaN(), 1e300, math.Inf(1)} {
		f.Submit(Scenario{Mw: mw, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1})
	}
	f.Wait()
	if st := f.Stats(); st.Attempts != 3 || st.Retries != 0 || st.BreakerTrips != 0 || st.Failed != 3 {
		t.Fatalf("unradiating scenarios: %+v", st)
	}
}

// TestFarmFTWorldRecovery: FT mode runs each job as a checkpointed world
// with in-world rank crashes; coordinated recovery must still produce
// clean artifacts identical to an undisturbed run.
func TestFarmFTWorldRecovery(t *testing.T) {
	spec := testSpec()
	spec.Ranks = 2
	sc := Scenario{Mw: 6.8, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}

	clean := newTestFarm(t, Config{Spec: spec, Workers: 1,
		FT: &FTConfig{Interval: 4}})
	clean.Submit(sc)
	clean.Wait()
	ref, err := clean.Store().Get(sc.Key())
	if err != nil {
		t.Fatalf("clean FT run: %v (stats %+v)", err, clean.Stats())
	}

	crash := mpi.ChaosPlan{CrashAtSend: map[int]uint64{1: 9}}
	f := newTestFarm(t, Config{Spec: spec, Workers: 1, MaxAttempts: 4,
		Deadline: time.Minute,
		FT:       &FTConfig{Interval: 4, chaos: &crash}})
	f.Submit(sc)
	f.Wait()
	st := f.Stats()
	if st.Completed != 1 {
		t.Fatalf("FT job did not complete: %+v", st)
	}
	if st.Recoveries == 0 {
		t.Fatal("no in-world recovery happened; test is vacuous")
	}
	got, err := f.Store().Get(sc.Key())
	if err != nil {
		t.Fatal(err)
	}
	if ProductChecksum(got) != ProductChecksum(ref) {
		t.Fatal("recovered world's product differs from clean run")
	}
}
