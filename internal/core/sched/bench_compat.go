// Package sched provides a persistent worker pool — the analogue of the
// OpenMP thread team the paper's Fortran code keeps alive across kernel
// calls (§IV.D) — that executes kernel work as a queue of tiles. The solver
// does not run on it (its ranks are its only parallelism); fd's tiled sweeps
// and the sponge's padded pass take a Pool, for the benchmark's probes.
// Workers pull tile indices from a shared atomic counter (dynamic
// scheduling), so uneven tiles load-balance automatically, and no goroutine
// is spawned per kernel call.
//
// Determinism: a batch's work function receives each index exactly once;
// which worker runs which index is unspecified. Kernel tiles are
// independent within one application (velocity updates read stresses and
// write velocities, and vice versa), so results are bit-identical to
// serial execution regardless of the schedule.
package sched

// What only the benchmark reaches, kept until it stops calling it — the
// whole package:
//
//	bench/probes.go:188-189  sched.NewPool(1), serial.Close()
//	bench/probes.go:219-221  sched.NewPool(1), sched.NewPool(2), Close()
//	fd.ForEachTile and fd.UpdateStressTiled (internal/core/fd/bench_compat.go),
//	which bench/probes.go:226 and :231-232 call, and Sponge.ApplyPool
//	(internal/core/boundary/bench_compat.go), which bench/probes.go:190 calls.

import (
	"sync"
	"sync/atomic"
)

// batch is one data-parallel work queue: indices [0,n) drained through an
// atomic cursor by every participating goroutine.
type batch struct {
	n    int
	fn   func(int)
	next atomic.Int64
	wg   sync.WaitGroup
}

// run drains the batch until the cursor passes n.
func (b *batch) run() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.fn(i)
	}
}

// Pool is a persistent team of worker goroutines. A Pool of size n
// executes batches on n concurrent goroutines: n-1 resident workers plus
// the submitting caller, which always participates (so a Pool never idles
// the thread that owns the rank). The zero-size/nil Pool runs everything
// inline, serially.
type Pool struct {
	size int         // total concurrency (workers + caller)
	jobs chan *batch // wake channel; each batch is enqueued once per worker
	done chan struct{}
}

func (p *Pool) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// ForEachN executes fn(i) for every i in [0,n) across the pool and blocks
// until all calls return. Safe for concurrent use from multiple
// goroutines; batches from concurrent callers interleave at tile
// granularity.
func (p *Pool) ForEachN(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.jobs == nil || n == 1 || p.closed() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := &batch{n: n, fn: fn}
	workers := p.size - 1
	if workers > n-1 {
		workers = n - 1 // never wake more workers than spare tiles
	}
	b.wg.Add(workers)
	for w := 0; w < workers; w++ {
		p.jobs <- b
	}
	b.run()
	b.wg.Wait()
}

// Size returns the pool's total concurrency (1 for a serial or nil pool).
func (p *Pool) Size() int {
	if p == nil || p.size < 1 {
		return 1
	}
	return p.size
}

// NewPool creates a pool with total concurrency n (n-1 resident workers;
// the caller of ForEachN is the n-th executor). n <= 1 returns a serial
// pool with no goroutines.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{size: n, done: make(chan struct{})}
	if n == 1 {
		return p
	}
	p.jobs = make(chan *batch, n-1)
	for w := 0; w < n-1; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for {
		select {
		case b := <-p.jobs:
			b.run()
			b.wg.Done()
		case <-p.done:
			return
		}
	}
}

// Close stops the resident workers. ForEachN on a closed pool runs
// serially. Close is idempotent; it must not be called concurrently with
// an in-flight ForEachN.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	select {
	case <-p.done:
	default:
		close(p.done)
	}
}
