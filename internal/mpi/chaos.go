// Chaos: scheduled whole-rank crashes for the in-process MPI runtime, the
// failure the paper's checkpoint/restart (§III.F) exists to survive. A
// ChaosPlan injected into a World before Run makes a rank's goroutine
// abort via panic at a scheduled send operation; Run/RunErr convert the
// panic into a *CrashError at the runner boundary, so the surviving ranks
// (and the recovery harness in internal/ft) can coordinate a rollback
// instead of the whole process dying.
//
// Message integrity is not simulated: as on a real machine it belongs to
// the MPI library and the interconnect, and a slice handed between
// goroutines cannot lose or flip a word. A crash schedule draws nothing,
// so a given (plan, program) pair crashes at the same operation on every
// run.
package mpi

import (
	"fmt"
	"sync/atomic"
)

// ChaosPlan configures crash injection on a World.
type ChaosPlan struct {
	// CrashAtSend schedules whole-rank crashes: rank r panics with a
	// *CrashError when it begins its CrashAtSend[r]-th send operation
	// (1-based, counting every point-to-point or collective payload it
	// submits). Each scheduled crash fires exactly once per World, even
	// if the world is Reset and the run replayed — the semantics of a
	// hardware failure followed by recovery.
	CrashAtSend map[int]uint64
}

// ChaosStats counts what the armed transport did since the plan was
// injected, cumulative across World.Reset.
type ChaosStats struct {
	Delivered uint64 // messages enqueued
	Crashes   uint64 // whole-rank crashes fired
}

// CrashError is the panic value of an injected whole-rank crash; RunErr
// surfaces it unwrapped inside the per-rank error so callers can
// errors.As for it.
type CrashError struct {
	Rank   int
	SendOp uint64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mpi: injected crash of rank %d at send op %d", e.Rank, e.SendOp)
}

// chaosEngine is the per-World injection state. A rank's send count only
// grows, across Reset too, so each scheduled operation number comes up,
// and its crash fires, once.
type chaosEngine struct {
	crashAt   map[int]uint64
	sends     []atomic.Uint64 // per rank
	delivered atomic.Uint64
	crashes   atomic.Uint64
}

// beginSend counts one send operation of rank and panics with a
// *CrashError when it is the scheduled one.
func (e *chaosEngine) beginSend(rank int) {
	if op := e.sends[rank].Add(1); op == e.crashAt[rank] {
		e.crashes.Add(1)
		panic(&CrashError{Rank: rank, SendOp: op})
	}
	e.delivered.Add(1)
}

// InjectChaos arms the world with a crash schedule. It must be called
// before Run/RunErr. Injection survives Reset: a scheduled crash that
// already fired stays fired, so a recovered replay runs past it.
func (w *World) InjectChaos(plan ChaosPlan) {
	w.chaos = &chaosEngine{crashAt: plan.CrashAtSend, sends: make([]atomic.Uint64, w.size)}
}

// ChaosStats returns the cumulative counters, or the zero stats when no
// plan is armed.
func (w *World) ChaosStats() ChaosStats {
	if w.chaos == nil {
		return ChaosStats{}
	}
	return ChaosStats{Delivered: w.chaos.delivered.Load(), Crashes: w.chaos.crashes.Load()}
}
