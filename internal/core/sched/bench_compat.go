package sched

// What only the benchmark reaches, kept until it stops calling it:
//
//	fd.ForEachTile (internal/core/fd/bench_compat.go), which
//	bench/probes.go:226 and, through fd.UpdateStressTiled, :231-232 call.

// Size returns the pool's total concurrency (1 for a serial or nil pool).
func (p *Pool) Size() int {
	if p == nil || p.size < 1 {
		return 1
	}
	return p.size
}
