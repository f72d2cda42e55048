// Command benchtab regenerates the tables and figures of the paper's
// evaluation (Tables 1-3, Figs 3-23 and the sustained-performance
// summary) and the three benchmark experiments that still hold a question
// no bench/ row or test asks (Eq. 7/8 residual, checkpoint interval,
// multi-rate stepping); -exp selects one by id, or all for the paper
// set. Petascale quantities come from the validated performance model
// (internal/perfmodel); physics quantities come from scaled production
// runs of the real solver.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/aval"
	"repro/internal/core/rupture"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// exps maps every -exp id to its generator. A benchmark experiment
// writes its JSON report to -out, or to its own committed default.
var exps = map[string]func(out string, short bool){
	"table1":    paper(table1),
	"table2":    paper(table2),
	"table3":    paper(table3),
	"fig3":      paper(fig3),
	"fig11":     paper(fig11),
	"fig12":     paper(fig12),
	"fig13":     paper(fig13),
	"fig14":     paper(fig14),
	"fig19":     paper(fig19),
	"fig21":     paper(fig21to23),
	"fig22":     paper(fig21to23),
	"fig23":     paper(fig21to23),
	"sustained": paper(sustained),
	"phases":    report("BENCH_3.json", phases),
	"ft":        report("BENCH_5.json", ftExp),
	"lts":       report("BENCH_7.json", ltsExp),
}

// allOrder is what -exp all runs: every paper table and figure once.
var allOrder = []string{"table1", "table2", "table3", "sustained",
	"fig11", "fig12", "fig13", "fig14", "fig3", "fig19", "fig21"}

func paper(f func()) func(string, bool) { return func(string, bool) { f() } }

func report(def string, f func(out string, short bool)) func(string, bool) {
	return func(out string, short bool) {
		if out == "" {
			out = def
		}
		f(out, short)
	}
}

// expIDs lists what -exp accepts: the keys of exps, sorted, then all.
func expIDs() string {
	ids := make([]string, 0, len(exps)+1)
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(append(ids, "all"), ", ")
}

// resolve returns the experiment ids -exp id runs, in order.
func resolve(id string) ([]string, error) {
	if id == "all" {
		return allOrder, nil
	}
	if exps[id] == nil {
		return nil, fmt.Errorf("unknown experiment %q (have %s)", id, expIDs())
	}
	return []string{id}, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id ("+expIDs()+")")
	out := flag.String("out", "", "output path for a benchmark experiment's JSON report (default: BENCH_3.json for phases, BENCH_5.json for ft, BENCH_7.json for lts)")
	short := flag.Bool("short", false, "reduced sweep for CI smoke runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ids, err := resolve(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: memprofile: %v\n", err)
			}
		}()
	}

	for _, id := range ids {
		exps[id](*out, *short)
	}
}

func header(s string) { fmt.Printf("\n=== %s ===\n", s) }

func table1() {
	header("Table 1: computers used by model for production runs")
	fmt.Printf("%-10s %-10s %-22s %-22s %8s %8s\n",
		"Computer", "Location", "Processor", "Interconnect", "Gflops", "Cores")
	for _, m := range perfmodel.Machines {
		fmt.Printf("%-10s %-10s %-22s %-22s %8.1f %8d\n",
			m.Name, m.Location, m.Processor, m.Interconnect, m.PeakGflops, m.CoresUsed)
	}
}

func table2() {
	header("Table 2: evolution of AWP-ODC (modeled sustained Tflop/s on the milestone platform)")
	// Milestone (machine, cores, grid) per version era, following Table 2/3.
	type row struct {
		ver     string
		sim     string
		machine perfmodel.Machine
		cores   int
		g       grid.Dims
		paper   float64
	}
	ts := grid.Dims{NX: 3000, NY: 1500, NZ: 400}    // 1.8e9 TeraShake
	so := grid.Dims{NX: 6000, NY: 3000, NZ: 800}    // 14.4e9 ShakeOut
	m8 := grid.Dims{NX: 20250, NY: 10125, NZ: 2125} // 436e9 M8
	rows := []row{
		{"1.0", "TeraShake-K", perfmodel.DataStar, 240, ts, 0.04},
		{"2.0", "TeraShake-D", perfmodel.DataStar, 1024, ts, 0.68},
		{"3.0", "PN MegaQuake", perfmodel.BGL, 6000, ts, 1.44},
		{"4.0", "ShakeOut-K", perfmodel.Ranger, 16000, so, 7.29},
		{"5.0", "ShakeOut-D", perfmodel.Ranger, 60000, so, 49.9},
		{"6.0", "W2W", perfmodel.Kraken, 96000, so, 86.7},
		{"7.2", "M8", perfmodel.Jaguar, 223074, m8, 220},
	}
	fmt.Printf("%-5s %-14s %-10s %8s %14s %14s\n", "Ver", "Simulation", "Machine", "Cores", "Model Tflops", "Paper Tflops")
	for _, r := range rows {
		v, _ := perfmodel.VersionByName(r.ver)
		j := perfmodel.Job{Machine: r.machine, Version: v, Global: r.g, Cores: r.cores}
		if r.sim == "M8" {
			j = perfmodel.M8Job(v) // the production configuration with I/O and aux work
		}
		fmt.Printf("%-5s %-14s %-10s %8d %14.2f %14.2f\n",
			r.ver, r.sim, r.machine.Name, r.cores, perfmodel.SustainedTflops(j), r.paper)
	}
}

func table3() {
	header("Table 3: SCEC milestone simulations (scaled demonstration runs)")
	fmt.Printf("%-18s %-26s %10s %10s %12s\n", "Simulation", "Description", "MaxFreq", "Cells", "PGVH max")
	type sim struct {
		name, desc string
		dims       grid.Dims
		h          float64
		fmax       float64
	}
	sims := []sim{
		{"TeraShake (TS-K)", "Mw7.7 kinematic, 0.5 Hz", grid.Dims{NX: 60, NY: 30, NZ: 16}, 500, 0.5},
		{"ShakeOut (SO-K)", "Mw7.8 kinematic, 1 Hz", grid.Dims{NX: 60, NY: 30, NZ: 16}, 500, 1.0},
		{"W2W", "Mw8.0 combined, 1 Hz", grid.Dims{NX: 80, NY: 30, NZ: 16}, 500, 1.0},
		{"M8", "Mw8.0 dynamic, 2 Hz", grid.Dims{NX: 80, NY: 30, NZ: 16}, 500, 2.0},
	}
	for _, s := range sims {
		q := cvm.SoCal(float64(s.dims.NX)*s.h, float64(s.dims.NY)*s.h, float64(s.dims.NZ)*s.h, 500)
		// Moment scaled with the demonstration fault area (~Mw 6.3) so
		// stress drop stays physical at this reduced scale.
		spec := source.HaskellSpec{
			GJ: s.dims.NY / 2, I0: 8, I1: s.dims.NX - 8, K0: 2, K1: 10,
			HypoI: 12, HypoK: 5, H: s.h, Mw: 6.3, Vr: 2800, RiseTime: 1.2,
			Mu: 3e10, Dt: 0.02, NT: 400, TaperCells: 2,
		}
		srcs, err := spec.Generate()
		if err != nil {
			panic(err)
		}
		res, err := solver.Run(q, solver.Options{
			Global: s.dims, H: s.h, Steps: 250,
			Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
			FreeSurface: true, Attenuation: true,
			Sources: srcs, TrackPGV: true,
		})
		if err != nil {
			panic(err)
		}
		var maxPGV float64
		for _, v := range res.PGVH {
			if v > maxPGV {
				maxPGV = v
			}
		}
		fmt.Printf("%-18s %-26s %8.1fHz %10d %10.3fm/s\n", s.name, s.desc, s.fmax, s.dims.Cells(), maxPGV)
	}
}

// fig3: the ShakeOut three-code verification — production 4th-order vs the
// independent 2nd-order reference, PGV comparison at surface receivers.
func fig3() {
	header("Fig 3: multi-code verification (production 4th-order vs independent 2nd-order)")
	mat := cvm.Material{Vp: 4000, Vs: 2310, Rho: 2500}
	q := cvm.Homogeneous(mat)
	g := grid.Dims{NX: 36, NY: 36, NZ: 28}
	h, dt, steps := 100.0, 0.008, 170
	stf := source.GaussianPulse(0.35, 0.09)
	recv := [][3]int{{10, 18, 14}, {18, 10, 10}, {26, 18, 14}, {18, 26, 18}}
	prod, err := solver.Run(q, solver.Options{
		Global: g, H: h, Dt: dt, Steps: steps,
		Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
		Sources: []source.SampledSource{(source.PointSource{
			GI: 18, GJ: 18, GK: 14, M0: 1e15, Tensor: source.Explosion, STF: stf,
		}).Sample(dt, steps+1)},
		Receivers: recv,
	})
	if err != nil {
		panic(err)
	}
	ref := aval.RunReference(aval.RefConfig{
		NX: g.NX, NY: g.NY, NZ: g.NZ, H: h, Dt: dt, Steps: steps, Q: q,
		SI: 18, SJ: 18, SK: 14, M0: 1e15, Tensor: source.Explosion, STF: stf,
		Receivers: recv, Sponge: 6,
	})
	fmt.Printf("%-10s %14s %14s %10s\n", "Receiver", "PGV (4th)", "PGV (2nd)", "L2 misfit")
	for r := range recv {
		rep := aval.Check("x", prod.Seismograms[r], ref[r], aval.CrossCodeTolerance)
		fmt.Printf("%-10v %14.6g %14.6g %10.4f\n", recv[r],
			analysis.PGVHFromSeries(prod.Seismograms[r]),
			analysis.PGVHFromSeries(ref[r]), rep.Misfit)
	}
}

// fig11: round-trip latency balance of the asynchronous model, measured on
// the in-process MPI runtime.
func fig11() {
	header("Fig 11: async model round-trip latency by rank pair (in-process runtime)")
	const ranks = 8
	const pings = 200
	w := mpi.NewWorld(ranks)
	lat := make([]float64, ranks)
	w.Run(func(c *mpi.Comm) {
		peer := (c.Rank() + ranks/2) % ranks
		buf := make([]float32, 256)
		start := time.Now()
		for p := 0; p < pings; p++ {
			if c.Rank() < ranks/2 {
				c.Send(peer, p, buf)
				c.Recv(buf, peer, 10000+p)
			} else {
				c.Recv(buf, peer, p)
				c.Send(peer, 10000+p, buf)
			}
		}
		lat[c.Rank()] = time.Since(start).Seconds() / pings * 1e6
	})
	sort.Float64s(lat)
	fmt.Printf("round-trip latency (us): min %.1f  median %.1f  max %.1f  spread %.1f%%\n",
		lat[0], lat[ranks/2], lat[ranks-1], 100*(lat[ranks-1]-lat[0])/lat[ranks/2])
}

func fig12() {
	header("Fig 12: execution time breakdown per step, M8 on Jaguar (model)")
	fmt.Printf("%-8s %-6s %10s %10s %10s %10s %10s\n", "Cores", "Ver", "Tcomp", "Tcomm", "Tsync", "T_IO", "Total")
	for _, cores := range []int{65610, 105456, 150120, 223074} {
		for _, ver := range []string{"6.0", "7.2"} {
			v, _ := perfmodel.VersionByName(ver)
			j := perfmodel.M8Job(v)
			j.Cores = cores
			b := perfmodel.StepTime(j)
			fmt.Printf("%-8d %-6s %10.4f %10.4f %10.4f %10.4f %10.4f\n",
				cores, ver, b.Comp, b.Comm, b.Sync, b.IO, b.Total())
		}
	}
}

func fig13() {
	header("Fig 13: time-to-solution per step by code version, M8 settings on Jaguar (model)")
	fmt.Printf("%-6s %-42s %12s\n", "Ver", "Optimizations", "s/step")
	descr := map[string]string{
		"1.0": "baseline", "2.0": "MPI tuning", "3.0": "I/O aggregation",
		"4.0": "mesh partitioning", "5.0": "asynchronous communication",
		"6.0": "single-CPU optimization", "7.1": "cache blocking",
		"7.2": "reduced algorithm-level communication",
	}
	for _, v := range perfmodel.Versions {
		j := perfmodel.M8Job(v)
		fmt.Printf("%-6s %-42s %12.4f\n", v.Name, descr[v.Name], perfmodel.StepTime(j).Total())
	}
}

func fig14() {
	header("Fig 14: strong scaling on TeraGrid/INCITE systems (model)")
	v72, _ := perfmodel.VersionByName("7.2")
	v60, _ := perfmodel.VersionByName("6.0")
	v50, _ := perfmodel.VersionByName("5.0")
	v40, _ := perfmodel.VersionByName("4.0")
	cases := []struct {
		label  string
		m      perfmodel.Machine
		before perfmodel.Version
		after  perfmodel.Version
		g      grid.Dims
		cores  []int
	}{
		{"TeraShake 1.8e9 @ DataStar", perfmodel.DataStar, perfmodel.Versions[0], perfmodel.Versions[1],
			grid.Dims{NX: 3000, NY: 1500, NZ: 400}, []int{240, 480, 1024, 2048}},
		{"ShakeOut 14.4e9 @ Ranger", perfmodel.Ranger, v40, v50,
			grid.Dims{NX: 6000, NY: 3000, NZ: 800}, []int{4096, 16000, 32000, 60000}},
		{"ShakeOut 14.4e9 @ Kraken", perfmodel.Kraken, v40, v50,
			grid.Dims{NX: 6000, NY: 3000, NZ: 800}, []int{8192, 32768, 96000}},
		{"M8 436e9 @ Jaguar", perfmodel.Jaguar, v60, v72,
			grid.Dims{NX: 20250, NY: 10125, NZ: 2125}, []int{16384, 65610, 131072, 223074}},
	}
	for _, c := range cases {
		fmt.Printf("\n%s\n%-9s %14s %14s %12s %12s\n", c.label, "Cores", "before s/step", "after s/step", "after spdup", "after eff")
		before := perfmodel.StrongScaling(c.m, c.before, c.g, c.cores)
		after := perfmodel.StrongScaling(c.m, c.after, c.g, c.cores)
		for i := range c.cores {
			fmt.Printf("%-9d %14.4f %14.4f %12.0f %12.3f\n",
				c.cores[i], before[i].StepTime, after[i].StepTime, after[i].Speedup, after[i].Efficiency)
		}
	}
}

// fig19: the M8 source model from a scaled spontaneous-rupture run.
func fig19() {
	header("Fig 19: M8 source model statistics (scaled spontaneous rupture)")
	res := runScaledM8Rupture(700)
	st := res.FaultStats
	fmt.Printf("final slip:        max %.2f m, mean %.2f m (paper: 7.8 max / 4.5 mean)\n", st.MaxSlip, st.MeanSlip)
	fmt.Printf("peak slip rate:    %.2f m/s (paper: >10 m/s in patches)\n", st.MaxPeakRate)
	fmt.Printf("ruptured fraction: %.2f\n", st.RupturedFraction)
	fmt.Printf("mean rupture vel:  %.0f m/s; supershear fraction %.3f (paper: sub-Rayleigh + supershear patches)\n",
		st.MeanRuptureVelocity, st.SupershearFraction)
	m0 := 0.0
	dt := res.Dt
	for _, mr := range res.MomentRate {
		m0 += mr * dt
	}
	fmt.Printf("seismic moment:    %.3g N*m (Mw %.2f)\n", m0, source.M02Mw(m0))
}

// runScaledM8Rupture runs the DFR stage of the two-step M8 method on a
// laptop-scale fault.
func runScaledM8Rupture(steps int) *solver.Result {
	g := grid.Dims{NX: 120, NY: 32, NZ: 28}
	h := 200.0
	spec := rupture.M8StressSpec(100, 20, h)
	spec.Dc = 0.08
	spec.DcSurface = 0.25
	spec.DepthK = func(k int) float64 { return float64(k+2) * h * 4 } // depth-compressed profile
	tau, sn, fr := spec.Build()
	rupture.Nucleate(tau, sn, fr, 18, 10, 6, 0.02)
	q := cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700})
	res, err := solver.Run(q, solver.Options{
		Global: g, H: h, Steps: steps,
		Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
		Fault: &solver.FaultSpec{
			J0: 16, I0: 10, I1: 110, K0: 3, K1: 23,
			Tau0: tau, SigmaN: sn, Friction: fr, RecordEvery: 2,
		},
	})
	if err != nil {
		panic(err)
	}
	return res
}

// fig21to23: the scaled two-step M8 — dynamic source transferred onto the
// wave-propagation model, PGV maps, city seismograms and GMPE comparison.
func fig21to23() {
	header("Fig 21-23: scaled M8 wave propagation, PGVH and GMPE comparison")
	rup := runScaledM8Rupture(700)

	// Transfer dynamic slip rates to a kinematic source (the two-step
	// method of §VII), low-passed at 2 Hz.
	h := 400.0
	dtOut := 0.02
	mu := 3.24e10
	var srcs []source.SampledSource
	for n, series := range rup.SlipSeries {
		node := rup.SlipNodes[n]
		// Map the rupture grid onto the wave grid (half resolution).
		srcs = append(srcs, source.TransferDynamic(node[0]/2+20, 40, node[2]/2,
			series, mu, h*h, rup.SlipDt, dtOut, 2.0, 600))
	}
	g := grid.Dims{NX: 120, NY: 80, NZ: 24}
	lx, ly, lz := float64(g.NX)*h, float64(g.NY)*h, float64(g.NZ)*h
	q := cvm.SoCal(lx, ly, lz, 500)
	sbI, sbJ := int(0.62*float64(g.NX)), int(0.52*float64(g.NY))
	res, err := solver.Run(q, solver.Options{
		Global: g, H: h, Steps: 1100,
		Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 8,
		FreeSurface: true, Attenuation: true,
		Sources: srcs, TrackPGV: true,
		Receivers: [][3]int{{sbI, sbJ, 0}},
	})
	if err != nil {
		panic(err)
	}

	// Fig 21: PGVH at basin-analogue sites.
	sites := []struct {
		name   string
		fx, fy float64
	}{
		{"LA basin", 0.52, 0.40}, {"San Bernardino", 0.62, 0.52},
		{"Ventura", 0.40, 0.47}, {"Coachella", 0.78, 0.33},
		{"hard rock ref", 0.15, 0.85},
	}
	fmt.Printf("%-16s %12s\n", "Site", "PGVH (m/s)")
	var rockPGV, basinPGV float64
	for _, s := range sites {
		i := int(s.fx * float64(g.NX))
		j := int(s.fy * float64(g.NY))
		v := res.PGVH[j*g.NX+i]
		fmt.Printf("%-16s %12.4f\n", s.name, v)
		if s.name == "hard rock ref" {
			rockPGV = v
		}
		if s.name == "San Bernardino" {
			basinPGV = v
		}
	}
	if rockPGV > 0 {
		fmt.Printf("basin/rock amplification (SBB): %.1fx (paper: basins hardest hit)\n", basinPGV/rockPGV)
	}

	// §VII.C dPDA: spectral analysis of the San Bernardino-analogue
	// record (the paper finds basin-response peaks at 2-4 s periods).
	var sb []float32
	for _, v := range res.Seismograms[0] {
		sb = append(sb, v[1]) // fault-normal horizontal component
	}
	period := analysis.DominantPeriod(sb, res.Dt, 0.1, 2.0, 120)
	frac12 := analysis.BandEnergyFraction(sb, res.Dt, 1.0, 2.0, 0.05, 2.0)
	fmt.Printf("San Bernardino spectral peak: %.1f s period; 1-2 Hz energy fraction %.2f\n", period, frac12)

	// Fig 22 proxy: near-fault PGV along strike vs supershear patches.
	fmt.Printf("supershear fraction (rupture): %.3f; near-fault max PGVH %.3f m/s\n",
		rup.FaultStats.SupershearFraction, maxRow(res.PGVH, g.NX, 40))

	// Fig 23: distance-binned rock-site geometric-mean PGV vs NGA curves.
	trace := [][2]float64{{20 * h, 40 * h}, {70 * h, 40 * h}}
	var rocks []analysis.Site
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			mat := q.Query(float64(i)*h, float64(j)*h, 0)
			gm := analysis.GeomMeanFromPeaks(res.PGVX[j*g.NX+i], res.PGVY[j*g.NX+i])
			rocks = append(rocks, analysis.Site{
				DistKM: analysis.FaultTraceDistanceKM(float64(i)*h, float64(j)*h, trace),
				PGV:    gm * 100, // cm/s
				Rock:   mat.Vs > 1000,
			})
		}
	}
	m0 := 0.0
	for _, mr := range rup.MomentRate {
		m0 += mr * rup.Dt
	}
	mw := source.M02Mw(m0)
	edges := []float64{0, 2, 5, 10, 20, 40}
	bins := analysis.BinByDistance(rocks, edges)
	ba, cb := analysis.BooreAtkinson2008{}, analysis.CampbellBozorgnia2008{}
	fmt.Printf("\n%-12s %6s %12s %12s %12s (Mw %.2f; cm/s; shape comparison)\n",
		"Dist (km)", "N", "M8 median", "B&A08", "C&B08", mw)
	for _, b := range bins {
		if b.Count == 0 {
			continue
		}
		rmid := (b.RMin + b.RMax) / 2
		fmt.Printf("%5.1f-%-6.1f %6d %12.3f %12.3f %12.3f\n",
			b.RMin, b.RMax, b.Count, b.Median, ba.MedianPGV(mw, rmid, 760), cb.MedianPGV(mw, rmid, 760))
	}
}

func maxRow(pgv []float64, nx, j int) float64 {
	var m float64
	for i := 0; i < nx; i++ {
		if v := pgv[j*nx+i]; v > m {
			m = v
		}
	}
	return m
}

func sustained() {
	header("Sustained performance (§V.B)")
	v72, _ := perfmodel.VersionByName("7.2")
	m8 := perfmodel.M8Job(v72)
	fmt.Printf("M8 production (24h, 436e9 cells, 223,074 cores): %.1f Tflop/s (paper: 220)\n",
		perfmodel.SustainedTflops(m8))
	fmt.Printf("Blue Waters benchmark (1.4e12 points, 2000 steps): %.1f Tflop/s (paper: 260)\n",
		perfmodel.SustainedTflops(perfmodel.BenchmarkJob()))
	fmt.Printf("M8 parallel efficiency on 223,074 cores: %.3f (paper: 0.986)\n",
		perfmodel.Efficiency(m8))
}
