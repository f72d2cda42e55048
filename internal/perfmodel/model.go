package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// UsefulFlopsPerCell is the PAPI-countable floating-point work per cell
// per time step (velocity + stress + coarse-grained attenuation kernels);
// sustained Tflop/s figures use this count, as the paper's PAPI_FP_OPS /
// wall-clock does.
const UsefulFlopsPerCell = 180.0

// GhostWidth mirrors the solver's two-cell halo.
const GhostWidth = 2

// Job describes a modeled production run.
type Job struct {
	Machine Machine
	Version Version
	Global  grid.Dims
	Cores   int
	// OutputBytesPerStep is the aggregate output volume per recorded step
	// (M8: surface velocities on an 80 m grid every 20th step).
	OutputBytesPerStep float64
	// OutputEverySteps is 1/gamma of Eq. 7 when IOAggregated is false;
	// aggregated runs flush every AggregateSteps.
	OutputEverySteps int
	AggregateSteps   int
	// IOBandwidth is the file-system aggregate bandwidth, B/s.
	IOBandwidth float64
	// WriterRanks is the aggregator count of the two-phase collective
	// output path (M8: 670, one writer stream per OST). Aggregated flushes
	// pay a metadata charge per writer open, amortized over the
	// AggregateSteps interval — negligible by design, which is the point:
	// a bounded writer set keeps the MDS out of the critical path, unlike
	// the per-rank storm of the unaggregated branch.
	WriterRanks int
	// AuxOverheadFraction is extra per-cell production work (sources,
	// boundary zones, aggregation, checksums) relative to the bare wave
	// kernels; ~0 in dedicated benchmarks.
	AuxOverheadFraction float64
}

// Breakdown is the Eq. 7 decomposition of one time step, in seconds.
type Breakdown struct {
	Comp, Comm, Sync, IO float64
}

// Total returns the full step time.
func (b Breakdown) Total() float64 { return b.Comp + b.Comm + b.Sync + b.IO }

// topoFor picks the communication topology for p cores over the global
// grid: the search awp.Run uses, at one cell per rank and axis, under the
// least cut-plane area, which gives the paper's near-cubic decompositions.
// Every modelled job factors; one that does not is a bug in its inputs.
func topoFor(g grid.Dims, p int) (px, py, pz int) {
	t, err := decomp.BestTopo(g, p, 1, false, decomp.CutArea)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: %v", err))
	}
	return t.PX, t.PY, t.PZ
}

// compEfficiency returns the fraction of machine peak the compute kernels
// sustain under the version's single-CPU state and the subgrid's cache
// behaviour.
func compEfficiency(m Machine, v Version, cellsPerCore float64) float64 {
	eff := m.StencilEfficiency
	if !v.SingleCPUOpt {
		eff /= 1.31 // §IV.B: reduced divisions were worth 31%
	}
	if !v.Unrolled {
		eff /= 1.02
	}
	if !v.CacheBlocked {
		eff /= 1.07
	} else if cellsPerCore < m.CacheCellsPerCore {
		// Super-linear regime (§V.A): the per-core working set fits into
		// cache and memory access time collapses. Up to +35% as the
		// subgrid shrinks well below the cache size.
		fit := 1 - cellsPerCore/m.CacheCellsPerCore
		eff *= 1 + 0.35*fit
	}
	return eff
}

// StepTime prices one solver step (Eq. 7/8).
func StepTime(j Job) Breakdown {
	m, v := j.Machine, j.Version
	px, py, pz := topoFor(j.Global, j.Cores)
	nx := float64(j.Global.NX) / float64(px)
	ny := float64(j.Global.NY) / float64(py)
	nz := float64(j.Global.NZ) / float64(pz)
	cells := nx * ny * nz

	var b Breakdown

	// --- Tcomp ---
	b.Comp = UsefulFlopsPerCell * cells * m.Tau / compEfficiency(m, v, cells)
	// Production runs carry per-cell work beyond the wave kernels (source
	// reinitialization, PML zones, buffer aggregation, checksums): the gap
	// between the 2,000-step benchmark (260 Tflop/s) and the 24-hour M8
	// production run (220 Tflop/s) on the same cores (§V.B).
	b.Comp *= 1 + j.AuxOverheadFraction

	// --- Tcomm (Eq. 8 volumes: two ghost planes per face, float32) ---
	faceXY := nx * ny * float64(GhostWidth) * 4
	faceXZ := nx * nz * float64(GhostWidth) * 4
	faceYZ := ny * nz * float64(GhostWidth) * 4
	// Components exchanged per face pair per step: velocities 3 in all
	// axes; stresses 6 in all axes, or the reduced set (§IV.A).
	velMsgs := 3.0
	strMsgsX, strMsgsY, strMsgsZ := 6.0, 6.0, 6.0
	if v.ReducedComm {
		// sxx:x, syy:y, szz:z, sxy:xy, sxz:xz, syz:yz.
		strMsgsX, strMsgsY, strMsgsZ = 3, 3, 3
	}
	bytesX := (velMsgs + strMsgsX) * 2 * faceYZ
	bytesY := (velMsgs + strMsgsY) * 2 * faceXZ
	bytesZ := (velMsgs + strMsgsZ) * 2 * faceXY
	// Messages an interior rank sends per step, as the paper's per-field
	// code sends them: one per (component, axis, side), i.e. velocities
	// 3x3x2 = 18 plus stresses per the axis sets — 54 total, 36 under
	// reduced communication.
	msgsStep := 2 * (3*velMsgs + strMsgsX + strMsgsY + strMsgsZ)
	nMsgsPerPhase := 2 * (velMsgs + strMsgsX + strMsgsY + strMsgsZ) // both sides

	if v.Async {
		// Asynchronous: transfers of all faces proceed concurrently; the
		// latency term scales with the per-step message count (Eq. 7
		// extended: alpha*nmsgs + bytes*beta), plus the largest per-link
		// volume, plus the MPI_Waitall skew from boundary/interior load
		// imbalance, which grows slowly with scale (§V.A) and which the
		// reduced communication set trims (fewer messages to straggle on).
		maxLink := math.Max(bytesX/2, math.Max(bytesY/2, bytesZ/2))
		b.Comm = m.Alpha*msgsStep + maxLink*m.Beta
		skew := 0.05
		if v.ReducedComm {
			skew = 0.035
		}
		skew *= 1 + math.Log10(float64(j.Cores)+1)/4
		b.Comm += skew * b.Comp
		if !v.TunedMPI {
			b.Comm *= 1.5
		}
	} else {
		// Synchronous cascade (§IV.A): blocking pairs serialize along the
		// process chain. On single-socket torus nodes (BG/L, XT4) the
		// cascade pipelines well; on NUMA nodes the sockets contend for
		// the NIC and the accrued latency grows with the path length —
		// the observed 96% (BG/L) vs 40% (BG/P) collapse at 40K cores.
		base := nMsgsPerPhase * m.Alpha * float64(px+py+pz) / 3
		numaCascade := nMsgsPerPhase * m.Alpha * 3 * float64(px+py+pz) * (m.NUMAFactor - 1)
		b.Comm = base + numaCascade + (bytesX+bytesY+bytesZ)*m.Beta
		if !v.TunedMPI {
			b.Comm *= 1.5
		}
	}

	// --- Tsync ---
	if v.Async {
		// One residual MPI_Barrier per iteration plus imbalance wait.
		imb := 0.02
		if v.ReducedComm {
			imb = 0.012
		}
		b.Sync = m.Alpha*math.Log2(float64(j.Cores)+1) + imb*b.Comp
	} else {
		// Barriers after each phase, paced by the slowest NUMA node.
		b.Sync = 4 * m.Alpha * math.Log2(float64(j.Cores)+1) * m.NUMAFactor
	}

	// --- Toutput (gamma * Toutput of Eq. 7), amortized per step ---
	if j.OutputBytesPerStep > 0 && j.IOBandwidth > 0 {
		every := float64(j.OutputEverySteps)
		if every <= 0 {
			every = 1
		}
		avgBytesPerStep := j.OutputBytesPerStep / every
		if v.IOAggregated {
			// Buffered in memory, flushed in huge sequential writes that
			// stream at full file-system bandwidth.
			b.IO = avgBytesPerStep / j.IOBandwidth
			// Writer-rank metadata: each flush opens WriterRanks streams at
			// ~1 ms of MDS service each, amortized over the flush interval.
			if j.WriterRanks > 0 {
				interval := float64(j.AggregateSteps)
				if interval <= 0 {
					interval = every
				}
				b.IO += 1e-3 * float64(j.WriterRanks) / interval
			}
		} else {
			// Unaggregated small writes every recorded step: every rank
			// issues its own write, effective bandwidth collapses, and
			// the metadata storm grows with the writer count — the
			// 49%-overhead regime of §III.E.
			storm := 0.015 * math.Sqrt(float64(j.Cores))
			b.IO = (j.OutputBytesPerStep/(j.IOBandwidth/8) + storm) / every
		}
	}
	return b
}

// Speedup returns T(N,1)/T(N,p) for the job (Eq. 8 form).
func Speedup(j Job) float64 {
	single := j
	single.Cores = 1
	t1 := StepTime(single)
	tp := StepTime(j)
	// T(N,1) has no communication; Eq. 8's numerator is pure compute.
	return (t1.Comp + t1.IO) / tp.Total()
}

// Efficiency returns the parallel efficiency Speedup/p.
func Efficiency(j Job) float64 {
	return Speedup(j) / float64(j.Cores)
}

// SustainedTflops returns the PAPI-style sustained rate of the job.
func SustainedTflops(j Job) float64 {
	step := StepTime(j).Total()
	flops := UsefulFlopsPerCell * float64(j.Global.Cells())
	return flops / step / 1e12
}

// M8Job returns the M8 production configuration on Jaguar: 436 billion
// cells (810x405x85 km at 40 m), 223,074 cores, surface output every 20th
// step aggregated every 20,000 steps at 20 GB/s.
func M8Job(v Version) Job {
	return Job{
		Machine: Jaguar,
		Version: v,
		Global:  grid.Dims{NX: 20250, NY: 10125, NZ: 2125},
		Cores:   223074,
		// 4.5 TB over 112,500 recorded steps (every 20th of 2.25M... the
		// run produced 4.5 TB of surface output in total).
		OutputBytesPerStep:  4.5e12 / 112500,
		OutputEverySteps:    20,
		AggregateSteps:      20000,
		IOBandwidth:         20e9,
		WriterRanks:         670, // one aggregator stream per Jaguar OST
		AuxOverheadFraction: 0.27,
	}
}

// BenchmarkJob returns the 1.4-trillion-point Blue Waters preparation
// benchmark (§V.B): 750x375x79 km at 25 m on the full Jaguar system.
func BenchmarkJob() Job {
	v, _ := VersionByName("7.2")
	return Job{
		Machine: Jaguar,
		Version: v,
		Global:  grid.Dims{NX: 30000, NY: 15000, NZ: 3160},
		Cores:   223074,
	}
}

// ScalingPoint is one point of a Fig. 14 strong-scaling curve.
type ScalingPoint struct {
	Cores      int
	StepTime   float64
	Speedup    float64
	Efficiency float64
}

// StrongScaling sweeps core counts for a fixed problem.
func StrongScaling(m Machine, v Version, g grid.Dims, cores []int) []ScalingPoint {
	base := Job{Machine: m, Version: v, Global: g, Cores: cores[0]}
	t0 := StepTime(base).Total()
	out := make([]ScalingPoint, 0, len(cores))
	for _, p := range cores {
		j := Job{Machine: m, Version: v, Global: g, Cores: p}
		st := StepTime(j).Total()
		out = append(out, ScalingPoint{
			Cores:      p,
			StepTime:   st,
			Speedup:    t0 / st * float64(cores[0]),
			Efficiency: Efficiency(j),
		})
	}
	return out
}

// OptimalInterval returns Young's approximation of the checkpoint interval
// (in steps) that minimizes expected lost work: sqrt(2 * C * MTBF) rounded
// down, with C the checkpoint cost and MTBF the mean steps between
// failures.
func OptimalInterval(checkpointCostSteps, mtbfSteps float64) int {
	if checkpointCostSteps <= 0 || mtbfSteps <= 0 {
		return 1
	}
	n := int(math.Sqrt(2 * checkpointCostSteps * mtbfSteps))
	if n < 1 {
		n = 1
	}
	return n
}
