package farm

import (
	"reflect"
	"testing"
)

// TestChaosRollsIgnoreInterleaving: a key's fault sequence is a function
// of (seed, key, its own roll order) only — drawing other keys' rolls in
// between, in any order, does not change it; a different seed does.
func TestChaosRollsIgnoreInterleaving(t *testing.T) {
	plan := ChaosPlan{Seed: 21, CrashProb: 0.3, HangProb: 0.3, CorruptProb: 0.4, MaxFaultsPerJob: 4}
	keys := []string{"a", "b", "c", "d"}
	type draw struct {
		act     chaosAction
		corrupt bool
	}
	drive := func(seed int64, order []int) map[string][]draw {
		p := plan
		p.Seed = seed
		e := newChaosEngine(p)
		out := map[string][]draw{}
		for round := 0; round < 12; round++ {
			for _, ki := range order {
				k := keys[ki]
				act, _ := e.preAttempt(k)
				out[k] = append(out[k], draw{act, e.postStore(k)})
			}
		}
		return out
	}
	ref := drive(21, []int{0, 1, 2, 3})
	if got := drive(21, []int{3, 1, 0, 2}); !reflect.DeepEqual(ref, got) {
		t.Fatalf("roll order across keys changed a key's faults:\n%v\n%v", ref, got)
	}
	if got := drive(22, []int{0, 1, 2, 3}); reflect.DeepEqual(ref, got) {
		t.Fatal("a different seed drew the same faults")
	}
	seen := map[chaosAction]bool{}
	for _, ds := range ref {
		for _, d := range ds {
			seen[d.act] = true
		}
	}
	if !seen[chaosNone] || !seen[chaosCrash] || !seen[chaosHang] {
		t.Fatalf("degenerate draws: %v", ref)
	}
}

// TestFarmChaosSameSeedSameFaults: the seeded storm is reproducible — the
// same seed injects the same ChaosStats and the same per-key fault
// sequence whether 1, 2 or 4 workers race for the queue.
func TestFarmChaosSameSeedSameFaults(t *testing.T) {
	run := func(workers int) (ChaosStats, map[string][]chaosAction) {
		f := newTestFarm(t, Config{
			Workers: workers, MaxAttempts: 12,
			Chaos: &ChaosPlan{Seed: 5, CrashProb: 0.35, CorruptProb: 0.3, MaxFaultsPerJob: 3},
		})
		for _, sc := range LatinHypercube(8, 2, DefaultRange()) {
			f.Submit(sc)
		}
		f.Wait()
		f.Audit(4) // re-queues corrupted artifacts: more rolls per key
		if st := f.Stats(); st.Completed != 8 || st.Failed != 0 {
			t.Fatalf("workers=%d: ensemble incomplete: %+v", workers, st)
		}
		return f.Stats().Chaos, f.chaos.faults
	}
	refStats, refFaults := run(1)
	if refStats.Crashes == 0 || refStats.Corruptions == 0 {
		t.Fatalf("vacuous storm: %+v", refStats)
	}
	for _, workers := range []int{2, 4} {
		stats, faults := run(workers)
		if stats != refStats {
			t.Errorf("workers=%d: chaos stats %+v, want %+v", workers, stats, refStats)
		}
		if !reflect.DeepEqual(faults, refFaults) {
			t.Errorf("workers=%d: per-key fault sequences differ:\n%v\n%v", workers, faults, refFaults)
		}
	}
}
