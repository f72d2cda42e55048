package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Collectives for O(10^4)-rank worlds.
//
// Barrier is a combining tree: each rank owns one node of an implicit
// binary tree (children of r are 2r+1 and 2r+2), arrival propagates up
// by the arriving goroutine carrying subtree completions toward the
// root, release propagates down by bumping per-node generation words.
// Each rank parks exactly once (on its own node's release) and both
// directions touch only a rank's own node and its parent/children, so
// a barrier is O(log P) lock handoffs deep instead of P-1 waiters
// convoying on one mutex and one condvar (the centralized barrier this
// replaced; BENCH_8.json holds the comparison). The tree barrier sends
// no messages: it never touches the inbox path, never appears in the
// telemetry message counters, and no scheduled crash counts it as a send.
//
// bcast (under Allreduce and BcastValue) and Reduce are binomial trees
// (the classic MPICH recursive-halving schedule), and Allreduce is
// tree-Reduce-to-0 plus tree-bcast. Each carries exactly the message count
// and float volume of the flat versions they replace — P-1 messages for
// bcast/Reduce, 2(P-1) for Allreduce — so message-count tests and
// the perfmodel fit are unaffected; only the critical path drops from
// O(P) to O(log P). The payloads ride the ordinary Send path, so telemetry
// counters and scheduled crashes apply to collectives exactly as to
// point-to-point traffic.

// barrierNode is one rank's slot in the combining tree.
type barrierNode struct {
	mu   sync.Mutex
	cond sync.Cond // L set to &mu when the tree is built
	// arrived counts the arrivals this node has absorbed for the
	// current barrier: the owning rank's own entry plus one completed
	// subtree per child. Whoever's increment makes the node full zeroes
	// it and carries the completion to the parent, so no goroutine ever
	// sleeps waiting for children — each rank parks exactly once, on
	// its own node's release.
	arrived int
	// release is a per-node generation word. A waiter records its value
	// at entry and sleeps until it changes; the parent's owner bumps it
	// to release the subtree. Comparison is by != (not <), so the uint32
	// wrapping past MaxUint32 is benign — only one bump can happen
	// between a waiter's read and its wake.
	release uint32
}

// barrierTree is the lazily built set of nodes; one per rank.
type barrierTree struct {
	nodes []barrierNode
}

// barrierNodes returns the world's combining tree, building it on first
// use (one slice allocation, ~100 B/rank, charged to the first Barrier
// call rather than to NewWorld).
func (w *World) barrierNodes() []barrierNode {
	if t := w.barrier.Load(); t != nil {
		return t.nodes
	}
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	if t := w.barrier.Load(); t != nil {
		return t.nodes
	}
	t := &barrierTree{nodes: make([]barrierNode, w.size)}
	for i := range t.nodes {
		t.nodes[i].cond.L = &t.nodes[i].mu
	}
	w.barrier.Store(t)
	return t.nodes
}

// abort wakes every waiter; they observe w.aborted and panic.
func (t *barrierTree) abort() {
	for i := range t.nodes {
		n := &t.nodes[i]
		n.mu.Lock()
		n.release++
		n.cond.Broadcast()
		n.mu.Unlock()
	}
}

// reset clears arrival state for a quiesced world. Release generations
// are left wherever they are: waiters compare them relatively, so
// absolute values never need to agree across resets.
func (t *barrierTree) reset() {
	for i := range t.nodes {
		n := &t.nodes[i]
		n.mu.Lock()
		n.arrived = 0
		n.mu.Unlock()
	}
}

// Barrier blocks until every rank in the world has entered it. On an
// aborted world it panics with ErrWorldAborted (a released waiter must
// not proceed as if the barrier completed), converted to an error at
// the Run/RunErr boundary.
func (c *Comm) Barrier() {
	w := c.world
	if w.aborted.Load() {
		panic(fmt.Errorf("mpi: barrier: %w", ErrWorldAborted))
	}
	if w.size == 1 {
		return
	}
	nodes := w.barrierNodes()
	r := c.rank
	n := &nodes[r]
	// weight is the arrivals that complete node i: the owner's own entry
	// plus one completed subtree per child.
	weight := func(i int) int {
		wt := 1
		if 2*i+1 < w.size {
			wt++
		}
		if 2*i+2 < w.size {
			wt++
		}
		return wt
	}

	// Arrive: the generation is recorded in the same critical section as
	// the arrival — our node's release can only be bumped after the root
	// completes, which needs this arrival, so the bump always lands
	// after the read.
	n.mu.Lock()
	gen := n.release
	n.arrived++
	full := n.arrived == weight(r)
	if full {
		n.arrived = 0
	}
	n.mu.Unlock()

	// Combine up: the goroutine whose arrival completed a node carries
	// the completion to the parent, and so on — nobody sleeps on the way
	// up. Reaching the top as the root's completer means every rank has
	// arrived; that goroutine starts the release cascade.
	if full {
		cur := r
		for cur != 0 {
			p := (cur - 1) / 2
			pn := &nodes[p]
			pn.mu.Lock()
			pn.arrived++
			pfull := pn.arrived == weight(p)
			if pfull {
				pn.arrived = 0
			}
			pn.mu.Unlock()
			if !pfull {
				break
			}
			cur = p
		}
		if cur == 0 {
			root := &nodes[0]
			root.mu.Lock()
			root.release++
			root.cond.Broadcast()
			root.mu.Unlock()
		}
	}

	// Park once on our own node until the release wave reaches it. The
	// root's completer may be waking itself here (gen was read before
	// its own bump, so the loop condition is already false).
	n.mu.Lock()
	for n.release == gen && !w.aborted.Load() {
		n.cond.Wait()
	}
	n.mu.Unlock()
	if w.aborted.Load() {
		panic(fmt.Errorf("mpi: barrier: %w", ErrWorldAborted))
	}

	// Release down: every released rank forwards the wave to its
	// children, giving an O(log P) wake chain with no shared lock.
	for _, ch := range [2]int{2*r + 1, 2*r + 2} {
		if ch >= w.size {
			continue
		}
		cn := &nodes[ch]
		cn.mu.Lock()
		cn.release++
		cn.cond.Broadcast()
		cn.mu.Unlock()
	}
}

// collectiveSpan starts timing a collective on this rank's telemetry
// recorder; the returned func folds the elapsed time into the
// Collective phase. Barriers are excluded: the solver already wraps
// them in Sync spans, and double counting would skew the Eq. 7 split.
func (c *Comm) collectiveSpan() func() {
	if c.tel == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { c.tel.AddDur(telemetry.Collective, time.Since(t0)) }
}

// bcast sends root's data down a binomial tree and returns it on every
// rank, whatever its length: rank r (relative to root) receives from the
// rank that differs in its lowest set bit, then forwards to the ranks it
// dominates — P-1 messages total, ceil(log2 P) rounds on the critical path.
func (c *Comm) bcast(data []float32, root int) []float32 {
	if c.world.size == 1 {
		return data
	}
	done := c.collectiveSpan()
	defer done()
	size := c.world.size
	rel := (c.rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (rel - mask + root) % size
			data = c.takeMatchFrom(src, tagBcast).data
			break
		}
		mask <<= 1
	}
	// mask is now rel's lowest set bit (or >= size at the root); the
	// ranks below it are this rank's subtree.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < size {
			dst := (rel + mask + root) % size
			c.Send(dst, tagBcast, data)
		}
	}
	return data
}

// Reduce combines elementwise values from all ranks at root with op.
// Non-root ranks return their input unchanged; root returns the
// reduction. Binomial tree, mirroring bcast upside down: each rank
// folds in its subtree's partials, then sends one message up, two words
// per value (packF64: exact). The combine order differs from a flat
// rank-0..P-1 scan, so a floating-point Sum may differ from it in the
// last bits — but the tree order is deterministic for a given (size,
// root), and the result is bit for bit a serial fold in that order.
func (c *Comm) Reduce(vals []float64, op Op, root int) []float64 {
	if c.world.size == 1 {
		return append([]float64(nil), vals...)
	}
	done := c.collectiveSpan()
	defer done()
	size := c.world.size
	rel := (c.rank - root + size) % size
	acc := append([]float64(nil), vals...)
	f32 := make([]float32, 2*len(vals))
	other := make([]float64, len(vals))
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % size
			packF64(acc, f32)
			c.Send(dst, tagReduce, f32)
			return vals
		}
		if rel+mask < size {
			src := (rel + mask + root) % size
			c.MustRecv(f32, src, tagReduce)
			unpackF64(f32, other)
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
	}
	return acc
}

// Allreduce performs Reduce at rank 0 then broadcasts the result; both
// halves run on the binomial trees above, so the critical path is
// 2·ceil(log2 P) rounds while the wire traffic (2(P-1) messages of two
// words per value) matches the flat implementation. Every rank returns
// exactly the value rank 0 reduced.
func (c *Comm) Allreduce(vals []float64, op Op) []float64 {
	res := c.Reduce(vals, op, 0)
	f32 := make([]float32, 2*len(vals))
	if c.rank == 0 {
		packF64(res, f32)
	}
	f32 = c.bcast(f32, 0)
	out := make([]float64, len(vals))
	unpackF64(f32, out)
	return out
}
