// Package ft implements the application-level fault tolerance of §III.F
// as multi-rank coordinated checkpoint/restart: a fault costs the work
// since the last checkpoint every rank holds, the run resumes from saved
// state, and the recovered result is identical to a failure-free run.
// RunWorld drives the real solver across an in-process MPI world under
// injected faults — whole-rank crash, and transient or silent PFS faults
// — and recovers from every fault class by coordinated rollback: all ranks return to the newest step for which
// every rank has a CRC-valid checkpoint (checkpoint.FindLatestValid) and
// replay.
//
// The protocol per attempt:
//
//  1. each rank steps its solver.Stepper, writing its sections — whatever
//     restart state its owners hand over — as a checkpoint every Interval
//     steps (step 0 included, so rollback always has a floor);
//  2. a rank that faults — injected crash panic, aborted-world panic
//     after a peer crashed, any other panic — aborts the world so
//     blocked peers unwind, then parks at an out-of-band coordinator;
//  3. once every rank has parked, the last arriver (the leader) resets
//     the MPI runtime, elects the restart step, and broadcasts the
//     decision: finish, roll back and replay, rebuild from scratch
//     (when no coordinated checkpoint survived, or some rank faulted
//     before its solver state even existed), or give up (recovery
//     budget exhausted);
//  4. on rollback every rank reads its checkpoint back into its sections,
//     rewinds its step cursor, and re-enters 1. Recovery wall time lands in
//     the telemetry Recovery phase.
//
// Because the solver is deterministic, per-step observables are
// index-addressed, and PGV maps are monotone max-folds, a replayed step
// range overwrites identical values: the recovered result is bit-
// identical to a failure-free run — the property the chaos soak tests
// pin across comm models and fault classes.
package ft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core/solver"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// WorldOptions configures a chaos-hardened multi-rank run.
type WorldOptions struct {
	// Solver is the run configuration (topology, comm model, physics).
	Solver solver.Options
	// Query supplies the velocity model.
	Query cvm.Querier
	// FS is the simulated parallel file system holding checkpoints.
	FS *pfs.FS
	// Dir is the checkpoint directory on FS.
	Dir string
	// Interval is the checkpoint cadence in steps (default 10).
	Interval int
	// Chaos, when non-nil, schedules whole-rank crashes. Storage faults
	// are FS's own (pfs.(*FS).InjectFaults).
	Chaos *mpi.ChaosPlan
}

// WorldStats reports what the harness did and endured.
type WorldStats struct {
	Recoveries    int   // coordinated rollbacks (incl. rebuilds)
	Rebuilds      int   // recoveries with no usable coordinated checkpoint
	RestartSteps  []int // elected rollback steps, in recovery order
	Checkpoints   int   // successful per-rank checkpoint commits
	ReplayedSteps int   // step executions repeated due to rollback
	Chaos         mpi.ChaosStats
}

// maxRecoveries bounds coordinated recoveries before a run is declared
// lost.
const maxRecoveries = 16

// ErrRecoveryBudget is wrapped by RunWorld's error when maxRecoveries
// coordinated recoveries did not produce a completed run.
var ErrRecoveryBudget = errors.New("ft: recovery budget exhausted")

// decisionKind is the leader's verdict at a coordination point.
type decisionKind int

const (
	decideFinish  decisionKind = iota // all ranks completed: return results
	decideRestart                     // roll back to step and replay
	decideRebuild                     // rebuild rank state from scratch and replay
	decideFail                        // recovery budget exhausted
	decideReject                      // a rank's set-up rejected the options
)

type decision struct {
	kind decisionKind
	step int   // restart step for decideRestart
	err  error // the rejection for decideReject
}

// coordinator is the out-of-band rendezvous the recovery protocol runs
// on. It is deliberately NOT built on mpi collectives: after a crash the
// world is aborted and unusable until the leader resets it, which must
// happen while every rank goroutine is provably not touching the runtime
// — i.e. parked here.
type coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
	gen  int

	arrived  int
	anyFault bool
	allDone  bool
	allStep  bool  // every arrived rank has a live Stepper
	minIdx   int   // lowest current step index among arrived ranks
	rejected error // a set-up error some rank returned: no replay changes it

	dec          decision
	recoveries   int
	rebuilds     int
	restartSteps []int

	world *mpi.World
	o     *WorldOptions
}

func newCoordinator(n int, world *mpi.World, o *WorldOptions) *coordinator {
	c := &coordinator{n: n, allDone: true, allStep: true, minIdx: int(^uint(0) >> 1), world: world, o: o}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// arrive parks the rank until all n ranks have arrived, then returns the
// leader's decision for this round. done reports a cleanly completed
// segment; fault is the rank's recovered failure, nil for none — a
// rejection ends the run with it on every rank; hasStepper reports
// whether this rank's solver state exists (a rank that faulted during
// setup cannot roll back — NewStepper's collectives need all ranks — so
// the leader must pick a rebuild instead); stepIdx is the rank's current
// step cursor, bounding the restart election to genuine rollbacks.
func (c *coordinator) arrive(done bool, fault error, hasStepper bool, stepIdx int) decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.anyFault = c.anyFault || fault != nil
	if rej := (rejection{}); c.rejected == nil && errors.As(fault, &rej) {
		c.rejected = rej
	}
	c.allDone = c.allDone && done
	c.allStep = c.allStep && hasStepper
	if stepIdx < c.minIdx {
		c.minIdx = stepIdx
	}
	c.arrived++
	if c.arrived == c.n {
		c.dec = c.decide()
		// Reset accumulators for the next round and release the others.
		c.arrived, c.anyFault, c.allDone, c.allStep = 0, false, true, true
		c.minIdx = int(^uint(0) >> 1)
		c.gen++
		c.cond.Broadcast()
		return c.dec
	}
	gen := c.gen
	for gen == c.gen {
		c.cond.Wait()
	}
	return c.dec
}

// decide runs on the leader with every rank parked: the only moment the
// MPI runtime may be reset safely.
func (c *coordinator) decide() decision {
	if !c.anyFault && c.allDone {
		return decision{kind: decideFinish}
	}
	if c.rejected != nil {
		return decision{kind: decideReject, err: c.rejected}
	}
	c.recoveries++
	if c.recoveries > maxRecoveries {
		return decision{kind: decideFail}
	}
	c.world.Reset()
	step := -1
	if c.allStep {
		step = checkpoint.FindLatestValid(c.o.FS, c.o.Dir, c.n)
	}
	// A restart must be a genuine rollback on every rank: jumping a
	// cursor FORWARD (possible when stale checkpoints from a previous
	// incarnation outlive a rebuild) would skip recording the
	// observables of the jumped-over steps and break bit-identity.
	if step < 0 || step > c.minIdx {
		c.rebuilds++
		return decision{kind: decideRebuild}
	}
	c.restartSteps = append(c.restartSteps, step)
	return decision{kind: decideRestart, step: step}
}

// RunWorld executes the run under the configured fault plans and returns
// the rank-0 result, guaranteed bit-identical to a failure-free
// solver.Run with the same solver options.
func RunWorld(o WorldOptions) (*solver.Result, WorldStats, error) {
	if o.Interval <= 0 {
		o.Interval = 10
	}
	dc, opt, err := solver.Prepare(o.Solver)
	if err != nil {
		return nil, WorldStats{}, err
	}
	world := mpi.NewWorld(opt.Topo.Size())
	if o.Chaos != nil {
		world.InjectChaos(*o.Chaos)
	}
	coord := newCoordinator(opt.Topo.Size(), world, &o)

	var (
		mu              sync.Mutex
		result          *solver.Result
		saved, replayed atomic.Int64
	)

	runErr := world.RunErr(func(c *mpi.Comm) error {
		h := &rankHarness{comm: c, world: world, coord: coord, o: o, dc: dc, opt: opt,
			saved: &saved, replayed: &replayed}
		res, err := h.run()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			result = res
			mu.Unlock()
		}
		return nil
	})

	stats := WorldStats{
		Recoveries:    coord.recoveries,
		Rebuilds:      coord.rebuilds,
		RestartSteps:  coord.restartSteps,
		Checkpoints:   int(saved.Load()),
		ReplayedSteps: int(replayed.Load()),
		Chaos:         world.ChaosStats(),
	}
	if rej := (rejection{}); errors.As(runErr, &rej) {
		return nil, stats, rej.error // as solver.Run returns it
	}
	if runErr != nil {
		return nil, stats, runErr
	}
	return result, stats, nil
}

// rankHarness is one rank's side of the recovery protocol.
type rankHarness struct {
	comm  *mpi.Comm
	world *mpi.World
	coord *coordinator
	o     WorldOptions
	dc    decomp.Decomp
	opt   solver.Options

	saved, replayed *atomic.Int64
}

func (h *rankHarness) run() (*solver.Result, error) {
	var st *solver.Stepper
	for {
		res, segErr := h.runSegment(&st)
		if segErr != nil {
			// Unwedge peers blocked in the runtime, then park. Abort is
			// idempotent, so concurrent faulting ranks are fine.
			h.world.Abort()
		}
		idx := 0
		if st != nil {
			idx = st.StepIndex()
		}
		dec := h.coord.arrive(segErr == nil, segErr, st != nil, idx)
	decisions:
		for {
			switch dec.kind {
			case decideFinish:
				return res, nil
			case decideFail:
				if segErr != nil {
					return nil, fmt.Errorf("%w (rank %d last fault: %v)",
						ErrRecoveryBudget, h.comm.Rank(), segErr)
				}
				return nil, ErrRecoveryBudget
			case decideReject:
				return nil, dec.err
			case decideRebuild:
				// No coordinated checkpoint usable by every rank: rebuild
				// rank state from scratch and replay the whole run.
				// Deterministic replay makes this exactly the failure-free
				// computation.
				if st != nil {
					h.replayed.Add(int64(st.StepIndex()))
					st = nil
				}
				break decisions
			case decideRestart:
				// The leader only picks restart when every rank reported a
				// live Stepper, so st != nil here.
				sp := st.Recorder().Span(telemetry.Recovery)
				lerr := checkpoint.Read(h.o.FS, h.o.Dir, h.comm.Rank(), dec.step, st.Sections())
				if lerr == nil {
					prev := st.StepIndex()
					if serr := st.SetStepIndex(dec.step); serr != nil {
						lerr = serr
					} else {
						h.replayed.Add(int64(prev - dec.step))
					}
				}
				sp.End()
				if lerr != nil {
					// This rank cannot honor the decision (its checkpoint
					// file decayed between election and load). Re-fault:
					// peers that already resumed unwind on the abort, and
					// the next round elects an older step or a rebuild.
					h.world.Abort()
					segErr = lerr
					dec = h.coord.arrive(false, lerr, true, st.StepIndex())
					continue decisions
				}
				break decisions
			}
		}
	}
}

// rejection is an error NewStepper returned rather than panicked with: the
// options or the model are unusable (an unphysical material, an unstable
// Dt), every rank returns it from the same agreed values, and a rebuild
// would meet it again.
type rejection struct{ error }

// runSegment runs setup (if needed) and the checkpointed step loop to
// completion, converting every panic — injected rank crash,
// aborted-world unwind, a fault in set-up — into an error for the
// recovery protocol.
func (h *rankHarness) runSegment(stp **solver.Stepper) (res *solver.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("ft: rank %d fault: %v", h.comm.Rank(), p)
			}
		}
	}()
	if *stp == nil {
		st, nerr := solver.NewStepper(h.comm, h.o.Query, h.dc, h.opt)
		if nerr != nil {
			return nil, rejection{nerr}
		}
		*stp = st
	}
	st := *stp
	for !st.Done() {
		idx := st.StepIndex()
		if idx%h.o.Interval == 0 {
			// A failed save is survivable: recovery rolls back further.
			if _, serr := checkpoint.Write(h.o.FS, h.o.Dir, h.comm.Rank(), idx, st.Sections(), st.Recorder()); serr == nil {
				h.saved.Add(1)
			}
		}
		st.Step()
	}
	return st.Finish()
}
