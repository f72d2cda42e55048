package perfmodel

// Hybrid model-execution scaling (the 10k-rank mode): instead of
// pricing jobs from the Table 1 machine constants, a Machine is
// synthesized from constants measured on THIS host by really executing
// a sampled subset of ranks — compute per cell from instrumented solver
// steps, (alpha, beta) from FitAlphaBeta over halo-exchange sweeps, and
// the barrier round from the combining-tree collectives. Eq. 7/8 then
// extrapolates those constants to rank counts the host cannot hold,
// which is exactly how the paper's own model is validated (§V.A): fit
// small, predict large.

import "repro/internal/grid"

// MeasuredConstants are the per-rank execution constants a hybrid run
// measures on the sampled ranks (cmd/benchtab's measureConstants fills them).
type MeasuredConstants struct {
	// CompSecPerCell is the measured compute time of one cell for one
	// step on one core, from an instrumented uncontended solver run.
	CompSecPerCell float64
	// Alpha (s/message) and Beta (s/byte) are fitted from measured
	// halo-exchange sweeps via FitAlphaBeta.
	Alpha, Beta float64
	// SyncPerRound is the measured cost of one tree-barrier round at
	// the sample world size.
	SyncPerRound float64
	// MsgsPerRankStep and BytesPerRankStep are the measured per-rank
	// per-step message count and byte volume of the sampled exchange.
	MsgsPerRankStep  float64
	BytesPerRankStep float64
	// HostRankStepSec and HostNbrStepSec decompose the host wall-clock
	// of one step when ALL ranks execute for real on this host
	// (serialized at GOMAXPROCS=1): a fixed per-rank cost (compute,
	// physical-boundary work, sync share) plus a marginal per-neighbor
	// cost (halo traffic, scheduler churn). They are fitted from two
	// sampled world sizes with different mean neighbor counts, because a
	// pure cells-scaling projection systematically undershoots larger
	// worlds — a 2x2x2 sample averages 3 neighbors/rank where 4x4x4
	// averages 4.5, and the per-neighbor work is a ~25% effect. The pair
	// projects what a full — non-hybrid — execution of P ranks would
	// cost here, the quantity the hybrid-vs-full parity gate checks.
	HostRankStepSec float64
	HostNbrStepSec  float64
	// SampleRanks is the world size the sampled execution ran at.
	SampleRanks int
}

// Machine synthesizes a perfmodel Machine from the measured constants.
// StencilEfficiency is 1 and CacheCellsPerCore is 0 (no super-linear
// bonus): CompSecPerCell already IS the sustained per-cell time, so Tau
// absorbs the whole compute term and no efficiency modifiers apply.
// NUMAFactor is 1 — the goroutine transport has no NIC contention.
func (mc MeasuredConstants) Machine(name string) Machine {
	return Machine{
		Name:              name,
		Location:          "localhost",
		Processor:         "measured",
		Interconnect:      "in-process goroutine transport",
		Alpha:             mc.Alpha,
		Beta:              mc.Beta,
		Tau:               mc.CompSecPerCell / UsefulFlopsPerCell,
		StencilEfficiency: 1,
		NUMAFactor:        1,
		CacheCellsPerCore: 0,
	}
}

// MeasuredVersion is the Version under which measured constants apply:
// every optimization flag is on, so StepTime applies no penalty
// divisors — the measured numbers already include whatever the real
// code does and does not do.
func MeasuredVersion() Version {
	return Version{
		Name: "measured", Year: 2026,
		Async: true, ReducedComm: true, SingleCPUOpt: true,
		Unrolled: true, CacheBlocked: true, IOAggregated: true,
		TunedMPI: true,
	}
}

// HybridJob builds the Eq. 7 job for a run of cores ranks over global
// cells, priced by the measured constants.
func (mc MeasuredConstants) HybridJob(global grid.Dims, cores int) Job {
	return Job{
		Machine:       mc.Machine("measured-host"),
		Version:       MeasuredVersion(),
		Global:        global,
		Cores:         cores,
		CoalescedComm: true,
	}
}

// HybridStrongCurve prices a strong-scaling sweep (Fig. 6): global grid
// fixed, ranks swept.
func (mc MeasuredConstants) HybridStrongCurve(global grid.Dims, ranks []int) []ScalingPoint {
	return StrongScaling(mc.Machine("measured-host"), MeasuredVersion(), global, ranks)
}

// HostProjectedStepSec projects the wall-clock one step of a FULL
// (every-rank-real) execution of ranks would take on this host: at
// GOMAXPROCS=1 all ranks serialize, so host wall is the summed per-rank
// work — a fixed cost per rank plus a marginal cost per neighbor link
// (sumNeighbors is the topology-wide neighbor-count total). The
// hybrid-vs-full parity gate compares this projection against a
// really-executed run at a size the host can still hold.
func (mc MeasuredConstants) HostProjectedStepSec(ranks, sumNeighbors int) float64 {
	return mc.HostRankStepSec*float64(ranks) + mc.HostNbrStepSec*float64(sumNeighbors)
}
