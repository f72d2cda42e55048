package perfmodel

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func v(t *testing.T, name string) Version {
	t.Helper()
	ver, ok := VersionByName(name)
	if !ok {
		t.Fatalf("version %s missing", name)
	}
	return ver
}

// shakeOut is the 14.4-billion-point ShakeOut grid of Fig 14.
var shakeOut = grid.Dims{NX: 3000, NY: 1500, NZ: 3200}

func TestTable1MachinesComplete(t *testing.T) {
	if len(Machines) != 6 {
		t.Fatalf("Table 1 has %d machines, want 6", len(Machines))
	}
	wantCores := map[string]int{
		"DataStar": 2048, "Ranger": 60000, "BGW": 128000,
		"Intrepid": 96000, "Kraken": 96000, "Jaguar": 223074,
	}
	for _, m := range Machines {
		if m.Alpha <= 0 || m.Beta <= 0 || m.Tau <= 0 || m.PeakGflops <= 0 {
			t.Errorf("%s: incomplete model parameters", m.Name)
		}
		if wantCores[m.Name] == 0 {
			t.Errorf("unexpected machine %s", m.Name)
		} else if m.CoresUsed != wantCores[m.Name] {
			t.Errorf("%s cores %d, want %d", m.Name, m.CoresUsed, wantCores[m.Name])
		}
	}
	// Jaguar carries the paper's exact constants.
	if Jaguar.Alpha != 5.5e-6 || Jaguar.Beta != 2.5e-10 || Jaguar.Tau != 9.62e-11 {
		t.Error("Jaguar constants differ from §V.A")
	}
}

func TestTable2VersionsMonotoneImprovement(t *testing.T) {
	if len(Versions) != 8 {
		t.Fatalf("Table 2 rows = %d, want 8", len(Versions))
	}
	// On the M8 configuration, each successive version must not be slower.
	prev := math.Inf(1)
	for _, ver := range Versions {
		j := M8Job(ver)
		tt := StepTime(j).Total()
		if tt > prev*1.001 {
			t.Errorf("version %s slower than predecessor: %g > %g", ver.Name, tt, prev)
		}
		prev = tt
	}
	if _, ok := VersionByName("9.9"); ok {
		t.Error("unknown version resolved")
	}
}

// The headline reproduction targets of §V.B.
func TestSustainedPerformanceHeadlines(t *testing.T) {
	m8 := SustainedTflops(M8Job(v(t, "7.2")))
	if m8 < 200 || m8 > 240 {
		t.Errorf("M8 sustained %g Tflop/s, paper reports 220", m8)
	}
	bench := SustainedTflops(BenchmarkJob())
	if bench < 240 || bench > 280 {
		t.Errorf("benchmark sustained %g Tflop/s, paper reports 260", bench)
	}
	if !(bench > m8) {
		t.Error("benchmark should outrun the production M8 (260 vs 220)")
	}
	// Parallel efficiency ~98.6% on 223K cores (§V.A).
	if eff := Efficiency(M8Job(v(t, "7.2"))); eff < 0.95 || eff > 1.05 {
		t.Errorf("M8 efficiency %g, paper predicts 0.986", eff)
	}
}

// §IV.A: the asynchronous redesign tripled Ranger throughput at 60K cores
// (28% -> 75% parallel efficiency).
func TestAsyncRedesignOnRanger(t *testing.T) {
	sync := Job{Machine: Ranger, Version: v(t, "4.0"), Global: shakeOut, Cores: 60000}
	async := Job{Machine: Ranger, Version: v(t, "5.0"), Global: shakeOut, Cores: 60000}
	effS, effA := Efficiency(sync), Efficiency(async)
	if effS > 0.45 {
		t.Errorf("sync efficiency %g, paper ~0.28", effS)
	}
	if effA < 0.70 {
		t.Errorf("async efficiency %g, paper ~0.75", effA)
	}
	ratio := StepTime(sync).Total() / StepTime(async).Total()
	if ratio < 2 {
		t.Errorf("async time reduction %gx, paper ~3x", ratio)
	}
}

// §IV.A: sync worked on single-socket BG/L (96% at 40K) but collapsed on
// NUMA BG/P (40%).
func TestNUMASyncCollapse(t *testing.T) {
	ver := v(t, "4.0")
	bgl := Efficiency(Job{Machine: BGL, Version: ver, Global: shakeOut, Cores: 40000})
	bgp := Efficiency(Job{Machine: Intrepid, Version: ver, Global: shakeOut, Cores: 40000})
	if bgl < 0.90 {
		t.Errorf("BG/L sync efficiency %g, paper ~0.96", bgl)
	}
	if bgp > 0.60 {
		t.Errorf("BG/P sync efficiency %g, paper ~0.40", bgp)
	}
}

// Fig 12: between 65K and 223K cores on Jaguar, v7.2 beats v6.0, I/O stays
// under 2%, and the super-linear cache regime appears at full scale.
func TestFig12BreakdownShape(t *testing.T) {
	for _, cores := range []int{65610, 105000, 223074} {
		j72 := M8Job(v(t, "7.2"))
		j72.Cores = cores
		j60 := M8Job(v(t, "6.0"))
		j60.Cores = cores
		b72, b60 := StepTime(j72), StepTime(j60)
		if b72.Total() >= b60.Total() {
			t.Errorf("%d cores: v7.2 (%g) not faster than v6.0 (%g)", cores, b72.Total(), b60.Total())
		}
		if frac := b72.IO / b72.Total(); frac > 0.02 {
			t.Errorf("%d cores: I/O fraction %g, paper reports 0.6-2%%", cores, frac)
		}
		// Reduced communication lowers both Tcomm and Tsync (§V.A).
		if b72.Comm >= b60.Comm || b72.Sync >= b60.Sync {
			t.Errorf("%d cores: reduced comm did not lower comm/sync", cores)
		}
	}
	// Super-linear compute: per-cell compute time lower at 223K than 65K.
	j65 := M8Job(v(t, "7.2"))
	j65.Cores = 65610
	j223 := M8Job(v(t, "7.2"))
	j223.Cores = 223074
	perCell65 := StepTime(j65).Comp * 65610
	perCell223 := StepTime(j223).Comp * 223074
	if perCell223 >= perCell65 {
		t.Error("no super-linear cache effect at full scale")
	}
}

// Fig 13: time-to-solution per step (what benchtab -exp fig13 prints) drops
// monotonically from v4.0 to v7.2 on Jaguar with a cumulative gain of
// roughly 2x or better (async ~7x applies to the pre-async baseline).
func TestFig13TimeToSolution(t *testing.T) {
	names := []string{"4.0", "5.0", "6.0", "7.1", "7.2"}
	var times []float64
	for _, n := range names {
		times = append(times, StepTime(M8Job(v(t, n))).Total())
	}
	for i := 1; i < len(times); i++ {
		if times[i] > times[i-1] {
			t.Errorf("version %s slower than %s", names[i], names[i-1])
		}
	}
	if times[0]/times[len(times)-1] < 1.5 {
		t.Errorf("cumulative v4.0->v7.2 gain %gx too small", times[0]/times[len(times)-1])
	}
}

// Fig 14: strong scaling of the M8 problem on Jaguar is near-ideal (and
// super-linear at full scale) after optimization, and the before curves
// fall below the after curves.
func TestFig14StrongScaling(t *testing.T) {
	cores := []int{16384, 32768, 65610, 131072, 223074}
	m8 := grid.Dims{NX: 20250, NY: 10125, NZ: 2125}
	after := StrongScaling(Jaguar, v(t, "7.2"), m8, cores)
	before := StrongScaling(Jaguar, v(t, "6.0"), m8, cores)
	for i := range cores {
		if after[i].StepTime >= before[i].StepTime {
			t.Errorf("%d cores: optimized not faster", cores[i])
		}
	}
	// Efficiency at full scale stays >= 90% (paper: ideal/super-linear).
	last := after[len(after)-1]
	if last.Efficiency < 0.9 {
		t.Errorf("M8 full-scale efficiency %g", last.Efficiency)
	}
	// Speedup from 65610 to 223074 exceeds the core ratio (super-linear).
	s65 := after[2]
	ratio := last.StepTime / s65.StepTime
	ideal := float64(s65.Cores) / float64(last.Cores)
	if ratio > ideal*1.02 {
		t.Errorf("not super-linear: time ratio %g vs ideal %g", ratio, ideal)
	}
	// TeraShake on DataStar and ShakeOut on Ranger scale sub-ideally but
	// positively (speedup grows with cores).
	ts := grid.Dims{NX: 3000, NY: 1500, NZ: 400}
	dsPoints := StrongScaling(DataStar, v(t, "2.0"), ts, []int{240, 480, 1024, 2048})
	for i := 1; i < len(dsPoints); i++ {
		if dsPoints[i].Speedup <= dsPoints[i-1].Speedup {
			t.Errorf("DataStar speedup not increasing at %d cores", dsPoints[i].Cores)
		}
	}
}

// Weak scaling: 90% efficiency between 200 and 204K cores (§V.A) — model
// the same cells/core at both scales.
func TestWeakScaling(t *testing.T) {
	cellsPerCore := 2_000_000
	mk := func(p int) Job {
		side := int(math.Cbrt(float64(cellsPerCore * p)))
		g := grid.Dims{NX: side, NY: side, NZ: side}
		return Job{Machine: Jaguar, Version: v(t, "7.2"), Global: g, Cores: p}
	}
	small := StepTime(mk(200)).Total()
	large := StepTime(mk(204000)).Total()
	weakEff := small / large
	if weakEff < 0.85 || weakEff > 1.15 {
		t.Errorf("weak scaling efficiency %g, paper reports ~0.90", weakEff)
	}
}

func TestIOAggregationInModel(t *testing.T) {
	agg := M8Job(v(t, "7.2"))
	unagg := agg
	unagg.Version.IOAggregated = false
	ba, bu := StepTime(agg), StepTime(unagg)
	fa := ba.IO / ba.Total()
	fu := bu.IO / bu.Total()
	if fa > 0.02 {
		t.Errorf("aggregated I/O fraction %g, want < 2%%", fa)
	}
	if fu < 0.3 {
		t.Errorf("unaggregated I/O fraction %g, paper reports ~49%%", fu)
	}
}

// The aggregated writer-rank metadata term must be real but negligible:
// 670 opens amortized over a 20,000-step flush interval cannot move the
// M8 I/O fraction, while dropping the amortization (flushing every
// recorded step) must make it visible.
func TestWriterRanksMetadataTerm(t *testing.T) {
	with := M8Job(v(t, "7.2"))
	without := with
	without.WriterRanks = 0
	bw, bo := StepTime(with), StepTime(without)
	if bw.IO <= bo.IO {
		t.Error("WriterRanks term added no metadata cost")
	}
	if (bw.IO-bo.IO)/bw.Total() > 1e-4 {
		t.Errorf("amortized writer metadata moved the step time by %g of total",
			(bw.IO-bo.IO)/bw.Total())
	}
	eager := with
	eager.AggregateSteps = eager.OutputEverySteps
	if StepTime(eager).IO <= bw.IO {
		t.Error("per-interval flushing should pay more writer metadata than 20k-step flushes")
	}
}

func TestSpeedupConsistency(t *testing.T) {
	j := Job{Machine: Jaguar, Version: v(t, "7.2"), Global: shakeOut, Cores: 1024}
	s := Speedup(j)
	e := Efficiency(j)
	if math.Abs(s/float64(j.Cores)-e) > 1e-12 {
		t.Error("Efficiency != Speedup/p")
	}
	if s <= 1 {
		t.Error("speedup <= 1 at 1024 cores")
	}
}

func TestOptimalInterval(t *testing.T) {
	// Young's formula: sqrt(2*C*MTBF).
	if got := OptimalInterval(2, 400); got != 40 {
		t.Fatalf("OptimalInterval = %d, want 40", got)
	}
	if OptimalInterval(0, 100) != 1 || OptimalInterval(1, 0) != 1 {
		t.Fatal("degenerate inputs should clamp to 1")
	}
	// Longer MTBF -> longer interval.
	if OptimalInterval(2, 10000) <= OptimalInterval(2, 100) {
		t.Fatal("interval not increasing with MTBF")
	}
}
