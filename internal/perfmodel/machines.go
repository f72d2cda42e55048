// Package perfmodel implements the analytic performance model of §V (Eq. 7
// and Eq. 8), parameterized by the machine characteristics of Table 1 and
// the optimization history of Table 2. It prices one solver time step as
//
//	Ttot = Tcomp + Tcomm + Tsync + gamma*Toutput            (Eq. 7)
//
// with the communication cost alpha + k*beta per message (Minkoff 2002)
// and the 3D halo volumes of Eq. 8. The model is what lets this
// reproduction regenerate the paper's petascale scaling figures (Fig.
// 12–14) without 223,074 physical cores: the paper itself validates the
// same equations against its production runs (98.6% predicted parallel
// efficiency on Jaguar).
package perfmodel

// Machine is one row of Table 1 plus the model parameters (alpha, beta,
// tau) of §V.A. Values for Jaguar are the paper's; the others are set from
// the published interconnect characteristics of each system.
type Machine struct {
	Name         string
	Location     string
	Processor    string
	Interconnect string
	PeakGflops   float64 // per core, Table 1
	CoresUsed    int     // Table 1 production scale

	Alpha float64 // message latency, s
	Beta  float64 // transfer time per byte, s
	Tau   float64 // peak-machine time per flop, s

	// StencilEfficiency is the fraction of peak a fully optimized
	// memory-bound stencil sustains on this machine (~10% on Jaguar, §V.B).
	StencilEfficiency float64

	// NUMAFactor scales synchronous-cascade latency: sockets contending
	// for the NIC on NUMA nodes (§IV.A). 1 on single-socket BG nodes.
	NUMAFactor float64

	// CacheCellsPerCore is the subgrid size (cells) below which the
	// working set fits in L2 and the super-linear cache bonus applies.
	CacheCellsPerCore float64
}

// The production machines of Table 1.
var (
	DataStar = Machine{
		Name: "DataStar", Location: "SDSC", Processor: "1.5/1.7GHz Power4",
		Interconnect: "IBM Fat Tree", PeakGflops: 6.0, CoresUsed: 2048,
		Alpha: 8e-6, Beta: 7e-10, Tau: 1.0 / 6.0e9,
		StencilEfficiency: 0.085, NUMAFactor: 2, CacheCellsPerCore: 6e5,
	}
	Ranger = Machine{
		Name: "Ranger", Location: "TACC", Processor: "2.3GHz AMD Barcelona",
		Interconnect: "InfiniBand Fat Tree", PeakGflops: 9.2, CoresUsed: 60000,
		Alpha: 3e-6, Beta: 4e-10, Tau: 1.0 / 9.2e9,
		StencilEfficiency: 0.09, NUMAFactor: 4, CacheCellsPerCore: 5e5,
	}
	BGL = Machine{
		Name: "BGW", Location: "IBM Watson", Processor: "700MHz PowerPC",
		Interconnect: "3D Torus", PeakGflops: 2.8, CoresUsed: 128000,
		Alpha: 3.5e-6, Beta: 6e-10, Tau: 1.0 / 2.8e9,
		StencilEfficiency: 0.12, NUMAFactor: 1, CacheCellsPerCore: 3e5,
	}
	Intrepid = Machine{
		Name: "Intrepid", Location: "ANL", Processor: "850MHz PowerPC",
		Interconnect: "3D Torus (BG/P)", PeakGflops: 3.4, CoresUsed: 96000,
		Alpha: 3e-6, Beta: 5e-10, Tau: 1.0 / 3.4e9,
		StencilEfficiency: 0.115, NUMAFactor: 8, CacheCellsPerCore: 3e5,
	}
	Kraken = Machine{
		Name: "Kraken", Location: "NICS", Processor: "2.6GHz Istanbul",
		Interconnect: "SeaStar2+ 3D Torus", PeakGflops: 10.4, CoresUsed: 96000,
		Alpha: 6e-6, Beta: 2.8e-10, Tau: 9.62e-11,
		StencilEfficiency: 0.1225, NUMAFactor: 2, CacheCellsPerCore: 2.5e6,
	}
	Jaguar = Machine{
		Name: "Jaguar", Location: "ORNL", Processor: "2.6GHz Istanbul",
		Interconnect: "SeaStar2+ 3D Torus", PeakGflops: 10.4, CoresUsed: 223074,
		// The paper's measured constants (§V.A).
		Alpha: 5.5e-6, Beta: 2.5e-10, Tau: 9.62e-11,
		StencilEfficiency: 0.1225, NUMAFactor: 2, CacheCellsPerCore: 2.5e6,
	}
)

// Machines lists Table 1 in publication order.
var Machines = []Machine{DataStar, Ranger, BGL, Intrepid, Kraken, Jaguar}

// Version is one row of Table 2: which optimizations a code version has.
type Version struct {
	Name string

	Async        bool // asynchronous communication (v5.0)
	ReducedComm  bool // algorithm-level communication reduction (v7.2)
	SingleCPUOpt bool // reduced divisions (+31%, v6.0)
	Unrolled     bool // loop unrolling (+2%, v6.0)
	CacheBlocked bool // cache blocking (+7%, v7.1)
	IOAggregated bool // output aggregation (49% -> <2%)
	TunedMPI     bool // MPI tuning of v2.0
}

// Versions is the Table 2 evolution: TeraShake-K (v1.0, 2004) through M8
// (v7.2, 2010).
var Versions = []Version{
	{Name: "1.0"},
	{Name: "2.0", TunedMPI: true},
	{Name: "3.0", TunedMPI: true, IOAggregated: true},
	{Name: "4.0", TunedMPI: true, IOAggregated: true},
	{Name: "5.0", TunedMPI: true, IOAggregated: true, Async: true},
	{Name: "6.0", TunedMPI: true, IOAggregated: true, Async: true, SingleCPUOpt: true, Unrolled: true},
	{Name: "7.1", TunedMPI: true, IOAggregated: true, Async: true, SingleCPUOpt: true, Unrolled: true, CacheBlocked: true},
	{Name: "7.2", TunedMPI: true, IOAggregated: true, Async: true, SingleCPUOpt: true, Unrolled: true, CacheBlocked: true, ReducedComm: true},
}

// VersionByName finds a Table 2 row.
func VersionByName(name string) (Version, bool) {
	for _, v := range Versions {
		if v.Name == name {
			return v, true
		}
	}
	return Version{}, false
}
