// Chaos: deterministic, seeded fault injection for the in-process MPI
// runtime — the message-layer half of the distributed chaos harness
// (§III.F). A ChaosPlan injected into a World before Run perturbs the
// transport with four fault classes, mirroring what long petascale runs
// actually see:
//
//   - message delay: the send stalls for a bounded, seeded duration;
//   - message drop: the payload is lost on the wire and the sender
//     retries after an exponential backoff (the timeout/retransmit loop
//     of a reliable transport), bounded so delivery always converges;
//   - payload corruption: a single bit of the wire copy is flipped; the
//     receiver detects the damage through the per-message checksum the
//     chaos transport stamps on every payload, discards the message, and
//     the sender's proactive retransmit supplies the clean copy;
//   - whole-rank crash: the rank's goroutine aborts via panic at a
//     scheduled send operation; Run/RunErr convert the panic into a
//     *CrashError at the runner boundary so the surviving ranks (and the
//     recovery harness in internal/ft) can coordinate a rollback instead
//     of the whole process dying.
//
// Every decision is drawn from a per-rank rand.Rand seeded from
// Plan.Seed, so a given (plan, program) pair injects the same faults at
// the same operations on every run — the property the chaos soak tests
// pin their bit-identity guarantees on.
package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosPlan configures deterministic fault injection on a World. The
// zero value of each field disables that fault class.
type ChaosPlan struct {
	// Seed drives every per-rank random decision. Two runs with the same
	// seed and the same per-rank operation sequence inject identical
	// faults.
	Seed int64

	// DropProb is the per-transmission probability that the payload is
	// lost and the sender must retry.
	DropProb float64
	// CorruptProb is the per-transmission probability that a single bit
	// of the wire copy is flipped (caught by the per-message checksum).
	CorruptProb float64
	// DelayProb is the per-transmission probability that the send stalls
	// for a random duration up to maxDelay.
	DelayProb float64

	// MaxRetries bounds the sender's retransmissions per message; past
	// it the sender gives up with a *RetryExhaustedError panic (converted
	// to an error at the Run boundary). 0 defaults to 8.
	MaxRetries int
	// MaxConsecutiveFaults bounds how many consecutive transmissions of
	// one message the plan may fault (default 3), so retry always
	// converges before MaxRetries under the default settings.
	MaxConsecutiveFaults int

	// CrashAtSend schedules whole-rank crashes: rank r panics with a
	// *CrashError when it begins its CrashAtSend[r]-th send operation
	// (1-based, counting every point-to-point or collective payload it
	// submits). Each scheduled crash fires exactly once per World, even
	// if the world is Reset and the run replayed — the semantics of a
	// hardware failure followed by recovery.
	CrashAtSend map[int]uint64
}

// ChaosStats counts injected faults and transport reactions since the
// plan was injected. All counters are cumulative across World.Reset.
type ChaosStats struct {
	Delivered       uint64 // messages enqueued clean
	Dropped         uint64 // transmissions lost on the wire
	Corrupted       uint64 // transmissions enqueued with a flipped bit
	ChecksumRejects uint64 // receiver-side discards of corrupt payloads
	Delayed         uint64 // transmissions stalled by injected delay
	Retries         uint64 // sender retransmissions (drops + corruptions)
	Crashes         uint64 // whole-rank crashes fired
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

// RetryExhaustedError reports a sender that ran out of retransmission
// budget (only possible when a plan's MaxConsecutiveFaults is raised to
// MaxRetries or beyond).
type RetryExhaustedError struct {
	Rank, Dst, Tag int
	Attempts       int
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("mpi: rank %d exhausted %d send retries to rank %d tag %d",
		e.Rank, e.Attempts, e.Dst, e.Tag)
}

// chaosEngine is the per-World injection state.
type chaosEngine struct {
	plan  ChaosPlan
	ranks []*chaosRank

	delivered       atomic.Uint64
	dropped         atomic.Uint64
	corrupted       atomic.Uint64
	checksumRejects atomic.Uint64
	delayed         atomic.Uint64
	retries         atomic.Uint64
	crashes         atomic.Uint64
}

// chaosRank is one rank's decision state. The mutex makes the injectors
// safe even if a rank's comm endpoint is (incorrectly but plausibly)
// shared across goroutines.
type chaosRank struct {
	mu      sync.Mutex
	rng     *rand.Rand
	sends   uint64
	crashed bool
}

// fate is one transmission outcome decision.
type fate int

const (
	fateOK fate = iota
	fateDrop
	fateCorrupt
	fateDelay
)

// maxDelay bounds injected delays; retryBackoff is the base sender
// backoff after a lost or rejected transmission, doubled per consecutive
// retry.
const maxDelay, retryBackoff = 200 * time.Microsecond, 20 * time.Microsecond

func newChaosEngine(plan ChaosPlan, size int) *chaosEngine {
	if plan.MaxRetries <= 0 {
		plan.MaxRetries = 8
	}
	if plan.MaxConsecutiveFaults <= 0 {
		plan.MaxConsecutiveFaults = 3
	}
	e := &chaosEngine{plan: plan, ranks: make([]*chaosRank, size)}
	for r := range e.ranks {
		// Distinct deterministic stream per rank: the decision sequence
		// depends only on (seed, rank, per-rank op order), never on the
		// goroutine interleaving across ranks.
		e.ranks[r] = &chaosRank{rng: rand.New(rand.NewSource(plan.Seed ^ int64(uint64(r)*0x9e3779b97f4a7c15)))}
	}
	return e
}

func (e *chaosEngine) stats() ChaosStats {
	return ChaosStats{
		Delivered:       e.delivered.Load(),
		Dropped:         e.dropped.Load(),
		Corrupted:       e.corrupted.Load(),
		ChecksumRejects: e.checksumRejects.Load(),
		Delayed:         e.delayed.Load(),
		Retries:         e.retries.Load(),
		Crashes:         e.crashes.Load(),
	}
}

// beginSend counts one send operation of rank and reports whether the
// scheduled crash fires at it.
func (e *chaosEngine) beginSend(rank int) (op uint64, crash bool) {
	cr := e.ranks[rank]
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.sends++
	op = cr.sends
	if !cr.crashed && e.plan.CrashAtSend[rank] == op {
		cr.crashed = true
		crash = true
	}
	return
}

// draw decides the fate of one transmission attempt. consec is the
// number of consecutive faulted attempts so far for this message; at
// MaxConsecutiveFaults the draw is forced clean so delivery converges.
func (e *chaosEngine) draw(rank, consec, payloadLen int) (fate, time.Duration) {
	if consec >= e.plan.MaxConsecutiveFaults {
		return fateOK, 0
	}
	cr := e.ranks[rank]
	cr.mu.Lock()
	defer cr.mu.Unlock()
	u := cr.rng.Float64()
	switch {
	case u < e.plan.DropProb:
		return fateDrop, 0
	case u < e.plan.DropProb+e.plan.CorruptProb && payloadLen > 0:
		return fateCorrupt, 0
	case u < e.plan.DropProb+e.plan.CorruptProb+e.plan.DelayProb:
		return fateDelay, time.Duration(cr.rng.Int63n(int64(maxDelay) + 1))
	}
	return fateOK, 0
}

// corruptCopy returns a copy of data with one seeded bit flipped.
func (e *chaosEngine) corruptCopy(rank int, data []float32) []float32 {
	cp := append([]float32(nil), data...)
	cr := e.ranks[rank]
	cr.mu.Lock()
	i := cr.rng.Intn(len(cp))
	bit := uint(cr.rng.Intn(32))
	cr.mu.Unlock()
	cp[i] = math.Float32frombits(math.Float32bits(cp[i]) ^ 1<<bit)
	return cp
}

// checksum is the per-message FNV-1a digest over the payload bit
// patterns and length. It is computed only on chaos-enabled worlds; the
// fault-free transport never pays for it.
func checksum(data []float32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h = (h ^ uint64(len(data))) * prime
	for _, v := range data {
		h = (h ^ uint64(math.Float32bits(v))) * prime
	}
	// 0 is the "unchecked" sentinel on message.sum; remap the (1 in 2^64)
	// collision so a stamped message never looks unchecked.
	if h == 0 {
		h = 1
	}
	return h
}

// InjectChaos arms the world with a fault-injection plan. It must be
// called before Run/RunErr; messages sent before injection carry no
// checksum and would be rejected once verification turns on. Injection
// survives Reset — scheduled crashes that already fired stay fired, and
// the per-rank decision streams continue where they left off, so a
// recovered replay does not re-suffer the same scheduled faults.
func (w *World) InjectChaos(plan ChaosPlan) {
	w.chaos = newChaosEngine(plan, w.size)
}

// ChaosStats returns the cumulative injected-fault counters, or the zero
// stats when no plan is armed.
func (w *World) ChaosStats() ChaosStats {
	if w.chaos == nil {
		return ChaosStats{}
	}
	return w.chaos.stats()
}
