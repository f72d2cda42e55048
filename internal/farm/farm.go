package farm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core/solver"
	"repro/internal/ft"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// Config tunes the farm supervisor.
type Config struct {
	Spec EnsembleSpec
	// Workers is the persistent fleet size (default 4).
	Workers int
	// MaxAttempts caps tries per scenario before it is declared failed
	// (default 6).
	MaxAttempts int
	// Deadline bounds one attempt's wall time; a hung attempt is
	// abandoned and retried (default 10s — generous for clean jobs,
	// tightened by the benchmark from a pilot run).
	Deadline time.Duration
	// Chaos, when non-nil, arms the farm-level fault injector.
	Chaos *ChaosPlan
	// FT, when non-nil, runs each job as a fault-tolerant multi-rank
	// world (checkpoint/recover) instead of a plain solver.Run.
	FT *FTConfig
	// Rec, when non-nil, receives Job/Serve phase spans; the counts are
	// Stats' and the Server's /status.
	Rec *telemetry.Recorder
	// Logf routes diagnostics; nil silences them.
	Logf func(format string, args ...any)

	// breaker overrides the per-class circuit breakers' tuning; the zero
	// value is production's. This package's tests set it to trip or hold
	// a breaker within one test.
	breaker breakerConfig
}

// FTConfig configures fault-tolerant in-world execution of each job.
type FTConfig struct {
	// Interval is the checkpoint cadence in steps (default 15).
	Interval int

	// chaos schedules a rank crash inside each job's world. This
	// package's tests set it.
	chaos *mpi.ChaosPlan
}

// Stats snapshots the supervisor's counters.
type Stats struct {
	Submitted       int        `json:"submitted"`
	Completed       int        `json:"completed"`
	Duplicates      int        `json:"duplicates"`
	Failed          int        `json:"failed"` // permanently: after MaxAttempts, or rejected by solver.Prepare
	Attempts        int        `json:"attempts"`
	Retries         int        `json:"retries"`
	WorkerCrashes   int        `json:"worker_crashes"`
	WorkersReplaced int        `json:"workers_replaced"`
	DeadlineMisses  int        `json:"deadline_misses"`
	BreakerParks    int        `json:"breaker_parks"`
	BreakerTrips    int        `json:"breaker_trips"`
	CorruptRequeued int        `json:"corrupt_requeued"`
	Recoveries      int        `json:"recoveries"` // in-world coordinated rollbacks
	BackoffSec      float64    `json:"backoff_sec"`
	Chaos           ChaosStats `json:"chaos"`
}

type jobStatus int

const (
	jobQueued jobStatus = iota
	jobRunning
	jobDone
	jobFailed
)

type jobState struct {
	sc       Scenario
	status   jobStatus
	attempts int
	parks    int // consecutive breaker parks
	backoff  time.Duration
}

// retryBase and retryMax bound the exponential requeue backoff
// (pfs.RetryPolicy semantics).
const retryBase, retryMax = 2 * time.Millisecond, 50 * time.Millisecond

// maxParks bounds how many times one job may be parked behind its class's
// open breaker before it is failed fast, so Wait always terminates even if
// a class never heals.
const maxParks = 100

// Farm is the supervised scenario queue: a bounded persistent worker
// fleet pulls jobs, runs them under a per-attempt deadline with panic
// isolation, retries with bounded exponential backoff up to MaxAttempts,
// and lands verified products in the content-addressed store. Failures
// are isolated three ways: a crashing worker is replaced without
// disturbing other in-flight jobs; repeated failures in one scenario
// class trip that class's breaker without blocking the others; and a
// corrupted artifact is re-queued, never served.
type Farm struct {
	cfg      Config
	store    *Store
	breakers *Breakers
	chaos    *chaosEngine
	sur      *Surrogate

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string // keys, FIFO
	jobs     map[string]*jobState
	inflight int // queued + running + awaiting requeue
	closed   bool
	stats    Stats
	pending  sync.WaitGroup // delayed requeue timers
	workers  sync.WaitGroup
}

// New creates and starts a farm: Workers goroutines begin pulling
// immediately. Close must be called to stop them.
func New(cfg Config, store *Store, sur *Surrogate) *Farm {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Farm{
		cfg:      cfg,
		store:    store,
		breakers: newBreakers(cfg.breaker),
		sur:      sur,
		jobs:     map[string]*jobState{},
	}
	if cfg.Chaos != nil {
		f.chaos = newChaosEngine(*cfg.Chaos)
	}
	f.cond = sync.NewCond(&f.mu)
	for i := 0; i < cfg.Workers; i++ {
		f.workers.Add(1)
		go f.worker(i)
	}
	return f
}

// Store returns the farm's result store.
func (f *Farm) Store() *Store { return f.store }

// Surrogate returns the farm's trained surrogate (may be nil).
func (f *Farm) Surrogate() *Surrogate { return f.sur }

// Breakers returns the per-class breaker set.
func (f *Farm) Breakers() *Breakers { return f.breakers }

// Submit enqueues a scenario. Scenarios whose artifact already exists or
// that are already queued/running are deduplicated (content addressing
// makes re-submission idempotent). Returns the scenario key.
func (f *Farm) Submit(sc Scenario) string {
	key := sc.Key()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return key
	}
	f.stats.Submitted++
	if js := f.jobs[key]; js != nil && js.status != jobFailed {
		f.stats.Duplicates++
		return key
	}
	if f.store.Has(key) {
		f.jobs[key] = &jobState{sc: sc, status: jobDone}
		f.stats.Duplicates++
		return key
	}
	f.jobs[key] = &jobState{sc: sc, status: jobQueued}
	f.enqueueLocked(key)
	return key
}

// enqueueLocked appends to the FIFO and accounts the job in-flight.
func (f *Farm) enqueueLocked(key string) {
	f.queue = append(f.queue, key)
	f.inflight++
	f.cond.Broadcast()
}

// requeueAfter schedules a delayed retry without holding a worker.
func (f *Farm) requeueAfter(key string, d time.Duration) {
	f.pending.Add(1)
	time.AfterFunc(d, func() {
		defer f.pending.Done()
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.closed {
			// Job abandoned at shutdown: release the in-flight slot the
			// retry was holding.
			f.inflight--
			f.cond.Broadcast()
			return
		}
		f.queue = append(f.queue, key)
		f.cond.Broadcast()
	})
}

// worker is one fleet member. A panic inside an attempt (chaos crash or
// a genuine solver bug) kills this goroutine; the deferred supervisor
// spawns a replacement and requeues the job — other in-flight jobs never
// notice.
func (f *Farm) worker(id int) {
	defer f.workers.Done()
	var current string // key being attempted, for crash recovery
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			f.stats.WorkerCrashes++
			f.stats.WorkersReplaced++
			f.cfg.Logf("farm: worker %d crashed (%v); replacing", id, r)
			key := current
			f.mu.Unlock()
			if key != "" {
				f.attemptFailed(key, fmt.Errorf("worker crash: %v", r))
			}
			f.workers.Add(1)
			go f.worker(id)
		}
	}()
	for {
		f.mu.Lock()
		for len(f.queue) == 0 && !f.closed {
			f.cond.Wait()
		}
		if f.closed && len(f.queue) == 0 {
			f.mu.Unlock()
			return
		}
		key := f.queue[0]
		f.queue = f.queue[1:]
		js := f.jobs[key]
		if js == nil || js.status == jobDone || js.status == jobFailed {
			// Stale requeue (e.g. audit already resolved it).
			f.inflight--
			f.cond.Broadcast()
			f.mu.Unlock()
			continue
		}
		class := js.sc.Class()
		f.mu.Unlock()

		// Failure isolation: a tripped class parks its jobs (delayed
		// requeue) instead of burning attempts; other classes flow. A
		// job parked past maxParks fails fast so Wait terminates even
		// if the class never heals.
		if !f.breakers.Allow(class) {
			f.mu.Lock()
			f.stats.BreakerParks++
			js.parks++
			if js.parks > maxParks {
				js.status = jobFailed
				f.stats.Failed++
				f.cfg.Logf("farm: job %s shed after %d parks (class %s open)",
					key, js.parks, class)
				f.inflight--
				f.cond.Broadcast()
				f.mu.Unlock()
				continue
			}
			d := retryMax
			f.mu.Unlock()
			f.requeueAfter(key, d)
			continue
		}
		f.mu.Lock()
		js.parks = 0
		f.mu.Unlock()

		current = key
		f.runAttempt(key)
		current = ""
	}
}

// runAttempt executes one attempt under the deadline. The compute runs in
// an inner goroutine so a hang is abandoned (its eventual result
// discarded) rather than blocking the worker past the deadline. The Job
// span ends on every outcome before the job's status changes, so a Wait
// that returns sees every span of the jobs it waited for.
func (f *Farm) runAttempt(key string) {
	f.mu.Lock()
	js := f.jobs[key]
	if js == nil {
		f.mu.Unlock()
		return
	}
	js.status = jobRunning
	js.attempts++
	f.stats.Attempts++
	sc := js.sc
	f.mu.Unlock()

	sp := f.cfg.Rec.Span(telemetry.Job)

	// Chaos: a crash panics this worker (the supervisor replaces it); a
	// hang stalls the compute goroutine past the deadline.
	action, hang := f.chaos.preAttempt(key)
	if action == chaosCrash {
		sp.End()
		panic("chaos: worker crash mid-job " + key)
	}

	type outcome struct {
		p   Product
		err error
	}
	done := make(chan outcome, 1) // buffered: a late result never blocks the abandoned goroutine
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: fmt.Errorf("compute panic: %v", r)}
			}
		}()
		if action == chaosHang {
			time.Sleep(hang)
		}
		p, err := f.compute(sc)
		done <- outcome{p: p, err: err}
	}()

	select {
	case out := <-done:
		err := out.err
		if err == nil {
			_, err = f.store.Put(out.p) // verified by read-back
		}
		sp.End()
		if err != nil {
			f.attemptFailed(key, err)
			return
		}
		f.attemptSucceeded(key, out.p)
	case <-time.After(f.cfg.Deadline):
		sp.End()
		f.mu.Lock()
		f.stats.DeadlineMisses++
		f.mu.Unlock()
		f.attemptFailed(key, fmt.Errorf("deadline %v exceeded", f.cfg.Deadline))
	}
}

// rejectedError marks a failure no retry can heal: solver.Prepare refused
// the job's options.
type rejectedError struct{ error }

// compute runs the scenario to a product, either as a plain single-rank
// solve or as a fault-tolerant checkpointed world.
func (f *Farm) compute(sc Scenario) (Product, error) {
	opt := f.cfg.Spec.Options(sc)
	if _, _, err := solver.Prepare(opt); err != nil {
		return Product{}, rejectedError{err}
	}
	model := f.cfg.Spec.Model(sc)
	var res *solver.Result
	var err error
	if f.cfg.FT != nil {
		interval := f.cfg.FT.Interval
		if interval <= 0 {
			interval = 15
		}
		var stats ft.WorldStats
		res, stats, err = ft.RunWorld(ft.WorldOptions{
			Solver: opt, Query: model,
			FS: pfs.New(pfs.Jaguar()), Dir: "ckpt",
			Interval: interval, Chaos: f.cfg.FT.chaos,
		})
		f.mu.Lock()
		f.stats.Recoveries += stats.Recoveries
		f.mu.Unlock()
	} else {
		res, err = solver.Run(model, opt)
	}
	if err != nil {
		return Product{}, err
	}
	nx, ny := f.cfg.Spec.Dims.NX, f.cfg.Spec.Dims.NY
	p := Product{Scenario: sc, NX: nx, NY: ny, PGVH: make([]float32, nx*ny)}
	for i, v := range res.PGVH {
		p.PGVH[i] = float32(v)
		if v > p.Peak {
			p.Peak = v
		}
	}
	if !SanePGV(p) {
		return Product{}, fmt.Errorf("farm: insane PGV for %s", sc.Key())
	}
	return p, nil
}

// attemptSucceeded applies post-store chaos to the stored product, trains
// the surrogate and resolves the job.
func (f *Farm) attemptSucceeded(key string, p Product) {
	// Chaos: at-rest corruption right after the store. The audit (or a
	// serving read) catches it by CRC and re-queues.
	if f.chaos.postStore(key) {
		f.store.CorruptAtRest(key)
	}
	if f.sur != nil {
		f.sur.Observe(p.Scenario, p.Peak)
	}
	f.breakers.OnSuccess(p.Scenario.Class())
	f.mu.Lock()
	js := f.jobs[key]
	if js != nil && js.status != jobDone {
		js.status = jobDone
		f.stats.Completed++
		f.inflight--
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// attemptFailed books a failed attempt: breaker feedback, then either a
// backoff-delayed requeue or permanent failure after MaxAttempts. A
// rejected job fails at once and says nothing to its class's breaker:
// the configuration is at fault, not the class's health.
func (f *Farm) attemptFailed(key string, cause error) {
	var rej rejectedError
	rejected := errors.As(cause, &rej)
	f.mu.Lock()
	js := f.jobs[key]
	if js == nil || js.status == jobDone || js.status == jobFailed {
		f.mu.Unlock()
		return
	}
	if !rejected && f.breakers.OnFailure(js.sc.Class()) {
		f.stats.BreakerTrips++
		f.cfg.Logf("farm: breaker tripped for class %s (%s)", js.sc.Class(), cause)
	}
	if rejected || js.attempts >= f.cfg.MaxAttempts {
		js.status = jobFailed
		f.stats.Failed++
		f.cfg.Logf("farm: job %s failed permanently after %d attempts: %v",
			key, js.attempts, cause)
		f.inflight--
		f.cond.Broadcast()
		f.mu.Unlock()
		return
	}
	// Bounded exponential backoff, pfs.RetryPolicy semantics.
	if js.backoff <= 0 {
		js.backoff = retryBase
	} else {
		js.backoff = min(2*js.backoff, retryMax)
	}
	d := js.backoff
	js.status = jobQueued
	f.stats.Retries++
	f.stats.BackoffSec += d.Seconds()
	f.mu.Unlock()
	f.requeueAfter(key, d)
}

// Wait blocks until every submitted job has resolved (done or failed).
func (f *Farm) Wait() {
	f.mu.Lock()
	for f.inflight > 0 {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Audit verifies every stored artifact and re-queues the scenarios whose
// artifacts fail CRC (at-rest corruption). It loops until an audit round
// finds nothing (bounded by rounds), waiting for the re-runs each round.
// Returns the number of artifacts healed.
func (f *Farm) Audit(rounds int) int {
	if rounds <= 0 {
		rounds = 4
	}
	healed := 0
	for r := 0; r < rounds; r++ {
		bad := f.store.VerifyAll()
		if len(bad) == 0 {
			return healed
		}
		for _, key := range bad {
			f.mu.Lock()
			js := f.jobs[key]
			if js == nil {
				f.mu.Unlock()
				continue
			}
			f.store.Delete(key)
			f.withdrawLocked(js)
			f.enqueueLocked(key)
			f.mu.Unlock()
			healed++
		}
		f.Wait()
	}
	return healed
}

// Resubmit re-queues a known scenario whose artifact was found corrupt at
// serving time. Returns false if the key is unknown or the farm closed.
func (f *Farm) Resubmit(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	js := f.jobs[key]
	if js == nil || f.closed {
		return false
	}
	if js.status == jobQueued || js.status == jobRunning {
		return true // already on its way
	}
	f.store.Delete(key)
	f.withdrawLocked(js)
	f.enqueueLocked(key)
	return true
}

// withdrawLocked resets a resolved job back to queued for a corruption
// re-run, reversing its terminal accounting so Completed/Failed count
// unique resolved jobs, not resolution events.
func (f *Farm) withdrawLocked(js *jobState) {
	switch js.status {
	case jobDone:
		f.stats.Completed--
	case jobFailed:
		f.stats.Failed--
	}
	f.stats.CorruptRequeued++
	js.status = jobQueued
	js.attempts = 0
	js.parks = 0
	js.backoff = 0
}

// QueueDepth reports jobs waiting in the FIFO (for /status and shedding).
func (f *Farm) QueueDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

// Stats snapshots the counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Chaos = f.chaos.Stats()
	return st
}

// Close stops the fleet after the queue drains. Pending delayed requeues
// are released. Idempotent.
func (f *Farm) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.workers.Wait()
	f.pending.Wait()
}
