// Package mpi is an in-process message-passing runtime with MPI-like
// semantics. It is the substrate standing in for the MPI library the paper's
// AWP-ODC code runs on: ranks are goroutines, point-to-point messages are
// matched by (source, tag) with per-pair FIFO ordering, and blocking
// (Send/Recv), zero-copy (SendOwned/RecvTake) and collective operations are
// provided. Messages are []float32; anything else crosses as bytes or as a
// Go value through the one codec of wire.go.
//
// Send has buffered (eager) semantics: it copies the payload and returns
// immediately, exactly like a small-message MPI_Send on a real
// implementation. This preserves the property the paper's asynchronous
// communication redesign (§IV.A) relies on: messages from different sources
// arrive in arbitrary interleaving, and only unique tags keep data
// integrity.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ErrWorldAborted is the cause of operations attempted on an aborted
// world (a rank panicked, or Abort was called). Must-style operations
// panic with it; error-returning operations wrap it.
var ErrWorldAborted = errors.New("mpi: operation on aborted world")

// AnySource matches a message from any source rank in Recv/RecvTake.
const AnySource = -1

// AnyTag matches a message with any tag in Recv/RecvTake.
const AnyTag = -1

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []float32
	sent     int64 // telemetry.Now() at submission; 0 when telemetry is off
}

// inbox holds undelivered messages and pending receivers for one rank.
// The queue is stored in arrival order with a head cursor: queue[head:]
// are the live messages. Popping the oldest match is O(1) at the head
// (the overwhelmingly common case — per-pair FIFO with matching tags)
// instead of an O(len) slice shift, which matters when an eager sender
// runs ahead of its receiver and the backlog grows to thousands of
// messages (the BENCH_1 zero-copy regression: every Recv shifted the
// whole backlog with memmove).
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	head   int
	closed bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// World is a set of ranks that can communicate.
type World struct {
	size int
	// inboxes are allocated lazily, on a rank's first send or receive:
	// at O(10^4) ranks the eager per-rank inbox (mutex + cond + queue
	// header) dominated NewWorld cost, and most ranks of a sparse
	// communication pattern (ring halos, tree collectives) only ever
	// talk to a handful of peers. An idle rank costs one atomic pointer
	// word here plus one barrier-tree node — well under 1 KB.
	inboxes []atomic.Pointer[inbox]
	chaos   *chaosEngine // nil: no crash scheduled
	aborted atomic.Bool

	// Barrier's combining tree (collectives.go), built lazily under
	// barrierMu.
	barrierMu sync.Mutex
	barrier   atomic.Pointer[barrierTree]
}

// NewWorld creates a world with the given number of ranks. Creation is
// O(1) allocations and O(size) words: per-rank state (inboxes, barrier
// tree nodes) materializes on first use.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	return &World{size: size, inboxes: make([]atomic.Pointer[inbox], size)}
}

// inboxAt returns rank r's inbox, creating it on first use. Creation
// races with Abort: the CAS publishes the inbox first, then re-checks
// the aborted flag, so either Abort's sweep observes the published
// inbox and closes it, or the creator observes aborted and closes it
// itself — a send/recv can never block on an open inbox of an aborted
// world.
func (w *World) inboxAt(r int) *inbox {
	if b := w.inboxes[r].Load(); b != nil {
		return b
	}
	b := newInbox()
	if !w.inboxes[r].CompareAndSwap(nil, b) {
		return w.inboxes[r].Load()
	}
	if w.aborted.Load() {
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	return b
}

// RankError is one rank's failure inside RunErr: either the error the
// rank body returned, or its recovered panic value (Panicked true). The
// wrapped error survives errors.Is/As, so injected *CrashError values
// remain inspectable at the caller.
type RankError struct {
	Rank     int
	Err      error
	Panicked bool
}

func (e *RankError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// WorldError aggregates the per-rank failures of one RunErr execution.
type WorldError struct {
	Errs []*RankError // ordered by rank
}

func (e *WorldError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("%v (and %d more ranks failed)", e.Errs[0], len(e.Errs)-1)
}

// Unwrap exposes the per-rank errors to errors.Is/As.
func (e *WorldError) Unwrap() []error {
	out := make([]error, len(e.Errs))
	for i, re := range e.Errs {
		out[i] = re
	}
	return out
}

// Run executes body concurrently on every rank and blocks until all ranks
// return. If any rank panics, Run re-panics with the first panic value
// after the others finish or deadlock is broken by closing inboxes.
func (w *World) Run(body func(c *Comm)) {
	err := w.RunErr(func(c *Comm) error {
		body(c)
		return nil
	})
	var we *WorldError
	if errors.As(err, &we) {
		panic(we.Errs[0].Error())
	}
}

// RunErr executes body concurrently on every rank and blocks until all
// ranks return, converting rank panics (including injected chaos
// crashes) into errors at this boundary instead of taking the whole
// process down. It returns nil when every rank returned nil, or a
// *WorldError listing each failed rank. A panicking rank aborts the
// world so blocked peers fail fast instead of deadlocking; the caller
// may Reset the world and run again (the recovery harness in
// internal/ft does exactly that).
func (w *World) RunErr(body func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	panicked := make([]bool, w.size)
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = panicToError(p)
					panicked[rank] = true
					// Wake everything so blocked ranks can fail fast
					// instead of deadlocking.
					w.Abort()
				}
			}()
			errs[rank] = body(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	var we *WorldError
	for r, e := range errs {
		if e != nil {
			if we == nil {
				we = &WorldError{}
			}
			we.Errs = append(we.Errs, &RankError{Rank: r, Err: e, Panicked: panicked[r]})
		}
	}
	if we == nil {
		return nil
	}
	return we
}

// panicToError converts a recovered panic value into an error, keeping
// error values (e.g. *CrashError, ErrWorldAborted) unwrappable.
func panicToError(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("%v", p)
}

// Abort closes all inboxes and releases barrier waiters, so that a
// failed rank does not deadlock the rest: every subsequent or blocked
// Send/Recv/Barrier on the world panics with ErrWorldAborted (converted
// to an error at the RunErr boundary). The world stays aborted until
// Reset.
func (w *World) Abort() {
	w.aborted.Store(true)
	for i := range w.inboxes {
		b := w.inboxes[i].Load()
		if b == nil {
			continue
		}
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	if t := w.barrier.Load(); t != nil {
		t.abort()
	}
}

// Reset rearms an aborted world for another Run: all queued messages are
// discarded, inboxes reopen, and the barrier state clears. The caller
// must guarantee no rank is inside an mpi operation during Reset (the
// ft recovery coordinator resets only after every rank has quiesced).
// Chaos state is preserved: already-fired scheduled crashes stay fired,
// so a replay does not re-suffer the same crash forever.
func (w *World) Reset() {
	for i := range w.inboxes {
		b := w.inboxes[i].Load()
		if b == nil {
			continue
		}
		b.mu.Lock()
		clear(b.queue)
		b.queue = b.queue[:0]
		b.head = 0
		b.closed = false
		b.mu.Unlock()
	}
	if t := w.barrier.Load(); t != nil {
		t.reset()
	}
	w.aborted.Store(false)
}

// Comm is one rank's endpoint into the world.
type Comm struct {
	world *World
	rank  int
	tel   *telemetry.Recorder
}

// SetTelemetry attaches a per-rank recorder: every subsequent message
// this endpoint sends is stamped and counted per destination, and every
// receive is counted per source with its send-to-match latency. nil
// detaches (the default; the transport then skips all probes).
func (c *Comm) SetTelemetry(rec *telemetry.Recorder) { c.tel = rec }

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers a copy of data to dst with the given tag. It has buffered
// semantics: the caller may reuse data immediately after Send returns.
func (c *Comm) Send(dst, tag int, data []float32) {
	cp := make([]float32, len(data))
	copy(cp, data)
	c.deliver(dst, tag, cp)
}

// SendOwned delivers data to dst without copying: ownership of the slice
// transfers to the runtime and then to the receiver. The caller must not
// touch data after the call. Paired with RecvTake, a message costs one pack
// and zero further copies — the zero-copy halo path, where each link keeps
// the two buffers it trades (solver's schedule).
func (c *Comm) SendOwned(dst, tag int, data []float32) {
	c.deliver(dst, tag, data)
}

// deliver enqueues data (already owned by the runtime) at dst's inbox,
// first firing the rank's scheduled crash on a chaos-armed world.
func (c *Comm) deliver(dst, tag int, data []float32) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, c.world.size))
	}
	if ch := c.world.chaos; ch != nil {
		ch.beginSend(c.rank)
	}
	c.enqueue(dst, tag, data)
}

// enqueue appends one wire payload to dst's inbox.
func (c *Comm) enqueue(dst, tag int, data []float32) {
	var sent int64
	if c.tel != nil {
		sent = telemetry.Now()
		c.tel.CountSent(dst, len(data))
	}
	b := c.world.inboxAt(dst)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		panic(fmt.Errorf("mpi: send: %w", ErrWorldAborted))
	}
	// Reclaim the dead prefix before growing the queue, so steady-state
	// pipelining reuses capacity instead of appending forever.
	if b.head > 32 && b.head*2 >= len(b.queue) {
		n := copy(b.queue, b.queue[b.head:])
		clear(b.queue[n:])
		b.queue = b.queue[:n]
		b.head = 0
	}
	b.queue = append(b.queue, message{src: c.rank, tag: tag, data: data, sent: sent})
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Recv blocks until a message matching (src, tag) is available, copies
// its payload into buf. src may be
// AnySource and tag may be AnyTag. It returns an error — never panics —
// when src is not a valid rank, when the message is longer than buf
// (the message is consumed and lost, matching MPI_ERR_TRUNCATE), or
// when the world is aborted mid-wait; a chaos-crashed peer therefore
// surfaces as an error at this rank instead of taking the whole process
// down. Hot paths that treat these as programming errors use MustRecv.
func (c *Comm) Recv(buf []float32, src, tag int) error {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return fmt.Errorf("mpi: Recv from invalid rank %d (size %d)", src, c.world.size)
	}
	m, err := c.takeMatch(src, tag)
	if err != nil {
		return err
	}
	c.noteRecv(m)
	if len(m.data) > len(buf) {
		return fmt.Errorf("mpi: Recv overflow: message %d > buffer %d", len(m.data), len(buf))
	}
	copy(buf, m.data)
	return nil
}

// MustRecv is Recv for call sites where a receive failure is a
// programming error or is handled at the Run/RunErr boundary: it panics
// on any Recv error (the runner converts the panic back into a per-rank
// error instead of crashing the process).
func (c *Comm) MustRecv(buf []float32, src, tag int) {
	if err := c.Recv(buf, src, tag); err != nil {
		panic(err)
	}
}

// RecvTake blocks until a message matching (src, tag) is available and
// returns its payload without copying — the receiver takes ownership of
// the sender's lent buffer, and may reuse it (the halo keeps it as the next
// buffer it lends back). Errors follow the Recv contract (minus overflow,
// which cannot occur).
func (c *Comm) RecvTake(src, tag int) ([]float32, error) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, fmt.Errorf("mpi: RecvTake from invalid rank %d (size %d)", src, c.world.size)
	}
	m, err := c.takeMatch(src, tag)
	if err != nil {
		return nil, err
	}
	c.noteRecv(m)
	return m.data, nil
}

// MustRecvTake is RecvTake with the MustRecv panic contract.
func (c *Comm) MustRecvTake(src, tag int) []float32 {
	data, err := c.RecvTake(src, tag)
	if err != nil {
		panic(err)
	}
	return data
}

// noteRecv records a matched message on the telemetry recorder. Called
// after takeMatch returns, outside the inbox lock.
func (c *Comm) noteRecv(m message) {
	if c.tel == nil {
		return
	}
	var lat int64
	if m.sent > 0 {
		lat = telemetry.Now() - m.sent
	}
	c.tel.CountRecv(m.src, len(m.data), lat)
}

// takeMatch removes and returns the earliest-arrived message matching
// (src, tag) from this rank's inbox, blocking until one exists. The
// queue is in arrival order, so the first match is the earliest;
// the scan stops there. A head-of-queue match — the common case — pops
// in O(1) by advancing the head cursor; an interior match (out-of-order
// tag arrival) shifts only the messages ahead of it.
func (c *Comm) takeMatch(src, tag int) (message, error) {
	b := c.world.inboxAt(c.rank)
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i := b.head; i < len(b.queue); i++ {
			m := b.queue[i]
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				if i == b.head {
					b.queue[i] = message{} // release the payload reference
					b.head++
					if b.head == len(b.queue) {
						b.queue = b.queue[:0]
						b.head = 0
					}
				} else {
					copy(b.queue[b.head+1:i+1], b.queue[b.head:i])
					b.queue[b.head] = message{}
					b.head++
				}
				return m, nil
			}
		}
		if b.closed {
			return message{}, fmt.Errorf("mpi: recv: %w", ErrWorldAborted)
		}
		b.cond.Wait()
	}
}

// Reserved internal tag space for collectives; user tags must be >= 0, so
// negatives below AnyTag are safe.
const (
	tagBcast  = -100
	tagReduce = -101
	tagGather = -102
)

// Op is a reduction operator.
type Op func(a, b float64) float64

// Standard reduction operators.
var (
	Sum Op = func(a, b float64) float64 { return a + b }
	Max Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	Min Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Gather collects each rank's data at root. Root receives a slice of
// per-rank payloads indexed by rank; other ranks receive nil. Gather
// stays flat (every rank sends directly to root): the payloads are
// unequal-sized and root materializes all of them anyway, so a tree
// would only add store-and-forward copies without reducing root's O(P)
// memory or message count.
func (c *Comm) Gather(data []float32, root int) [][]float32 {
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]float32, c.world.size)
	out[root] = append([]float32(nil), data...)
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		m := c.takeMatchFrom(r, tagGather)
		out[r] = m.data
	}
	return out
}

func (c *Comm) takeMatchFrom(src, tag int) message {
	m, err := c.takeMatch(src, tag)
	if err != nil {
		panic(err)
	}
	c.noteRecv(m)
	return m
}
