package main

import (
	"testing"

	"repro/internal/cvm"
	"repro/internal/grid"
)

func hybridTestConfig() hybridConfig {
	return hybridConfig{
		PerRank:     grid.Dims{NX: 10, NY: 10, NZ: 10},
		SampleRanks: 8,
		Steps:       10,
		Reps:        3,
		Ranks:       []int{64, 512, 4096, 10240},
	}
}

func hybridQuerier(cfg hybridConfig) cvm.Querier {
	g := cfg.PerRank
	return cvm.SoCal(float64(g.NX)*100*8, float64(g.NY)*100*8, float64(g.NZ)*100*4, 500)
}

// TestHybridCurves checks the hybrid mode's structure and virtual-time
// arithmetic: constants measured on an 8-rank sample are extrapolated to
// every requested rank count, with plausible and monotone curves. The
// wall-clock parity of the P=64 host projection against a really executed
// run is a measurement, not a tier-1 verdict: `benchtab -exp scale` gates
// it as parity_rel_err.
func TestHybridCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid mode needs real timed runs; skipped in -short")
	}
	cfg := hybridTestConfig()
	hs, err := hybridRun(hybridQuerier(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(hs.Weak) != len(cfg.Ranks) {
		t.Fatalf("weak curve has %d points, want %d", len(hs.Weak), len(cfg.Ranks))
	}
	for i := range hs.Weak {
		pt := &hs.Weak[i]
		if pt.StepSec <= 0 || pt.Efficiency <= 0 || pt.Efficiency > 1.0001 {
			t.Fatalf("weak point P=%d implausible: step %.3g s, efficiency %.3g",
				pt.Ranks, pt.StepSec, pt.Efficiency)
		}
	}
	last := hs.Weak[len(hs.Weak)-1]
	if last.Ranks != 10240 {
		t.Fatalf("largest weak point is P=%d, want 10240", last.Ranks)
	}
	if last.SampledRanks != cfg.SampleRanks {
		t.Fatalf("P=10240 sampled %d ranks, want %d", last.SampledRanks, cfg.SampleRanks)
	}

	// The virtual cluster curve must reflect weak-scaling physics:
	// step time grows with P (communication and sync grow, compute per
	// rank fixed), so efficiency is non-increasing.
	for i := 1; i < len(hs.Weak); i++ {
		if hs.Weak[i].Efficiency > hs.Weak[i-1].Efficiency+1e-9 {
			t.Fatalf("weak efficiency increased from P=%d (%.4f) to P=%d (%.4f)",
				hs.Weak[i-1].Ranks, hs.Weak[i-1].Efficiency,
				hs.Weak[i].Ranks, hs.Weak[i].Efficiency)
		}
	}
	if len(hs.Strong) != len(cfg.Ranks) {
		t.Fatalf("strong curve has %d points, want %d", len(hs.Strong), len(cfg.Ranks))
	}
	for _, sp := range hs.Strong {
		if sp.StepTime <= 0 || sp.Speedup <= 0 {
			t.Fatalf("strong point P=%d implausible: %+v", sp.Cores, sp)
		}
	}
}

// TestMeasureConstantsSane checks the measured constants are physical:
// positive compute cost, non-negative fitted comm constants, measured
// traffic consistent with the schedule at the sample size.
func TestMeasureConstantsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement runs skipped in -short")
	}
	cfg := hybridTestConfig()
	mc, err := measureConstants(hybridQuerier(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mc.CompSecPerCell <= 0 || mc.HostRankStepSec <= 0 {
		t.Fatalf("non-positive measured compute: %+v", mc)
	}
	if mc.HostNbrStepSec < 0 {
		t.Fatalf("negative per-neighbor host cost: %+v", mc)
	}
	if mc.Alpha < 0 || mc.Beta <= 0 {
		t.Fatalf("unphysical fitted constants: alpha=%g beta=%g", mc.Alpha, mc.Beta)
	}
	if mc.SyncPerRound <= 0 {
		t.Fatalf("non-positive barrier round: %g", mc.SyncPerRound)
	}
	// A 2x2x2 sample: every rank has 3 neighbors, one message per
	// neighbor per phase, two phases — 6 msgs/rank/step.
	if mc.MsgsPerRankStep != 6 {
		t.Fatalf("measured %g msgs/rank/step, want 6 (2x2x2)", mc.MsgsPerRankStep)
	}
	if mc.BytesPerRankStep <= 0 {
		t.Fatalf("no measured bytes: %+v", mc)
	}
	if mc.SampleRanks != cfg.SampleRanks {
		t.Fatalf("SampleRanks = %d, want %d", mc.SampleRanks, cfg.SampleRanks)
	}
}
