package mpi

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scaleRanks returns the rank count for the 10k-rank tests: 10,240
// normally, shrunk under the race detector, whose per-goroutine shadow
// state makes full scale needlessly slow in CI's -race lane (the
// bounded soak there still runs the same code paths).
func scaleRanks() int {
	if telemetry.RaceEnabled {
		return 2048
	}
	return 10240
}

// heapAlloc returns the live heap after a full GC.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWorld10kRanks is the scale smoke: a 10,240-rank world runs tree
// barriers, a split-float Allreduce, and a ring halo exchange, then the
// steady-state heap attributable to the world is gated at < 10 KB per
// rank. The gate measures heap after Run returns (rank goroutines dead,
// their stacks returned), so what remains is the World's own state:
// lazy inboxes and the barrier tree.
func TestWorld10kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank smoke skipped in -short")
	}
	P := scaleRanks()
	base := heapAlloc()

	w := NewWorld(P)
	var phase atomic.Int64
	w.Run(func(c *Comm) {
		// Three barrier rounds with a shared-counter correctness check:
		// no rank may observe a counter from a later phase than its own
		// next one.
		for round := 1; round <= 3; round++ {
			phase.Add(1)
			c.Barrier()
			if got := phase.Load(); got != int64(round*P) {
				// Between the barrier's release and this load, ranks of
				// the NEXT round may already have bumped the counter —
				// but never beyond (round+1)*P - 1, and never below
				// round*P.
				if got < int64(round*P) || got >= int64((round+1)*P) {
					panic("barrier did not separate phases")
				}
			}
			c.Barrier()
		}

		// Split-float Allreduce across all ranks: Max over a vector
		// that includes a sentinel-zero lane.
		vals := []float64{float64(c.Rank()), 0, -float64(c.Rank())}
		out := c.Allreduce(vals, Max)
		if out[0] != float64(P-1) || out[1] != 0 || out[2] != 0 {
			panic("allreduce wrong at scale")
		}

		// Ring halo: each rank lends a buffer to its successor and takes
		// one from its predecessor — the zero-copy path.
		next, prev := (c.Rank()+1)%P, (c.Rank()-1+P)%P
		buf := make([]float32, 16)
		for i := range buf {
			buf[i] = float32(c.Rank())
		}
		c.SendOwned(next, 7, buf)
		got := c.MustRecvTake(prev, 7)
		if got[0] != float32(prev) {
			panic("ring halo wrong at scale")
		}
	})

	steady := heapAlloc()
	perRank := float64(steady-base) / float64(P)
	t.Logf("P=%d steady-state heap: %d B total, %.0f B/rank", P, steady-base, perRank)
	if perRank >= 10*1024 {
		t.Fatalf("per-rank steady-state heap %.0f B >= 10 KB", perRank)
	}
}

// TestIdleWorldUnder1KBPerRank pins the satellite claim directly: a
// freshly created world — no rank has sent, received, or synchronized —
// costs under 1 KB per rank, because inboxes and barrier nodes are
// allocated on first use rather than in NewWorld.
func TestIdleWorldUnder1KBPerRank(t *testing.T) {
	const P = 10240
	base := heapAlloc()
	worlds := make([]*World, 8)
	for i := range worlds {
		worlds[i] = NewWorld(P)
	}
	perRank := float64(heapAlloc()-base) / float64(P*len(worlds))
	t.Logf("idle world: %.1f B/rank", perRank)
	if perRank >= 1024 {
		t.Fatalf("idle world costs %.0f B/rank >= 1 KB", perRank)
	}
	runtime.KeepAlive(worlds)
}

// BenchmarkNewWorld10k proves the O(P)-inbox fix: world creation is one
// slice of atomic pointers, not 10,240 mutex+cond inbox allocations.
func BenchmarkNewWorld10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWorld(10240)
		runtime.KeepAlive(w)
	}
}

// TestTreeBarrierStress hammers the combining tree with randomized
// arrival order on a non-power-of-two world (ragged tree shape) — run
// under -race in CI. Each rank jitters before arriving, and a shared
// epoch counter catches any rank escaping a barrier early.
func TestTreeBarrierStress(t *testing.T) {
	const P = 97
	const rounds = 50
	w := NewWorld(P)
	var before atomic.Int64
	rng := rand.New(rand.NewSource(42))
	jitter := make([][]time.Duration, P)
	for r := range jitter {
		jitter[r] = make([]time.Duration, rounds)
		for i := range jitter[r] {
			jitter[r][i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
	}
	w.Run(func(c *Comm) {
		for i := 0; i < rounds; i++ {
			time.Sleep(jitter[c.Rank()][i])
			before.Add(1)
			c.Barrier()
			if n := before.Load(); n < int64((i+1)*P) {
				panic("rank escaped barrier before all arrived")
			}
			c.Barrier()
		}
	})
}

// TestTreeBarrierGenerationWraparound drives the per-node release
// generations across the uint32 boundary: waiters compare generations
// with != against a value read at entry, so wrapping past MaxUint32
// must be invisible.
func TestTreeBarrierGenerationWraparound(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	// Build the tree, then push every node's release generation to the
	// brink so the next few barriers wrap it.
	w.Run(func(c *Comm) { c.Barrier() })
	nodes := w.barrier.Load().nodes
	for i := range nodes {
		nodes[i].mu.Lock()
		nodes[i].release = math.MaxUint32 - 1
		nodes[i].mu.Unlock()
	}
	var steps atomic.Int64
	w.Run(func(c *Comm) {
		for i := 0; i < 8; i++ {
			steps.Add(1)
			c.Barrier()
			if n := steps.Load(); n < int64((i+1)*P) {
				panic("barrier broke across generation wraparound")
			}
			c.Barrier()
		}
	})
	// Every node's release is bumped once per barrier — the root's by
	// the completing goroutine, the rest by the release wave — so all
	// of them must have wrapped past MaxUint32.
	for i := 0; i < len(nodes); i++ {
		if nodes[i].release > math.MaxUint32/2 {
			t.Fatalf("node %d release generation did not wrap: %d", i, nodes[i].release)
		}
	}
}

// TestBarrierAbortReleasesTree verifies Abort wakes tree-barrier
// waiters into ErrWorldAborted panics instead of deadlock, and that
// Reset rearms the tree for a subsequent Run.
func TestBarrierAbortReleasesTree(t *testing.T) {
	const P = 9
	w := NewWorld(P)
	err := w.RunErr(func(c *Comm) error {
		if c.Rank() == 0 {
			// Give the others time to block in the barrier, then die.
			time.Sleep(10 * time.Millisecond)
			panic("rank 0 dies")
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("expected a WorldError")
	}
	w.Reset()
	var n atomic.Int64
	if err := w.RunErr(func(c *Comm) error {
		n.Add(1)
		c.Barrier()
		if n.Load() < P {
			panic("post-Reset barrier released early")
		}
		return nil
	}); err != nil {
		t.Fatalf("post-Reset run failed: %v", err)
	}
}

// sent runs body on every rank of w with a fresh telemetry recorder
// attached and returns the messages and float32 values all ranks sent.
func sent(w *World, body func(c *Comm)) (msgs, floats int64) {
	var mu sync.Mutex
	w.Run(func(c *Comm) {
		rec := telemetry.NewRecorder(c.Rank(), 0)
		c.SetTelemetry(rec)
		body(c)
		mu.Lock()
		defer mu.Unlock()
		for _, nb := range rec.Neighbors() {
			msgs, floats = msgs+nb.SentMsgs, floats+nb.SentFloats
		}
	})
	return msgs, floats
}

// TestTreeCollectivesMessageStats pins the wire-compatibility claim:
// the binomial bcast/Reduce and the tree Allreduce carry exactly the
// message counts and float volumes of the flat schedules they replaced.
func TestTreeCollectivesMessageStats(t *testing.T) {
	for _, P := range []int{2, 5, 8, 13} {
		w := NewWorld(P)
		msgs, floats := sent(w, func(c *Comm) {
			buf := make([]float32, 3)
			if c.Rank() == 1%P {
				buf = []float32{1, 2, 3}
			}
			buf = c.bcast(buf, 1%P)
			if buf[2] != 3 {
				panic("bcast payload wrong")
			}
		})
		if msgs != int64(P-1) || floats != int64(3*(P-1)) {
			t.Fatalf("P=%d Bcast: %d msgs %d floats, want %d/%d", P, msgs, floats, P-1, 3*(P-1))
		}
		msgs, floats = sent(w, func(c *Comm) {
			out := c.Allreduce([]float64{float64(c.Rank() + 1)}, Sum)
			want := float64(P*(P+1)) / 2
			if math.Abs(out[0]-want) > 1e-9 {
				panic("allreduce sum wrong")
			}
		})
		if msgs != int64(2*(P-1)) || floats != int64(2*2*(P-1)) {
			t.Fatalf("P=%d Allreduce: %d msgs %d floats, want %d/%d", P, msgs, floats, 2*(P-1), 4*(P-1))
		}
	}
}

// TestBarrierSendsNoMessages pins the property the halo benchmarks
// depend on: Barrier never touches the message path or its counters.
func TestBarrierSendsNoMessages(t *testing.T) {
	if msgs, floats := sent(NewWorld(32), func(c *Comm) {
		for i := 0; i < 5; i++ {
			c.Barrier()
		}
	}); msgs != 0 || floats != 0 {
		t.Fatalf("barrier sent messages: %d msgs %d floats", msgs, floats)
	}
}

// TestLazyInboxAbortRace races inbox creation against Abort: whichever
// side wins the CAS publication race, no send may block or succeed on
// an open inbox of an aborted world.
func TestLazyInboxAbortRace(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		w := NewWorld(64)
		var wg sync.WaitGroup
		wg.Add(2)
		errs := make(chan error, 1)
		go func() {
			defer wg.Done()
			err := w.RunErr(func(c *Comm) error {
				// Every rank sends to a previously untouched inbox.
				c.Send((c.Rank()+31)%64, 1, []float32{1})
				err := c.Recv(make([]float32, 1), AnySource, 1)
				return err
			})
			select {
			case errs <- err:
			default:
			}
		}()
		go func() {
			defer wg.Done()
			w.Abort()
		}()
		wg.Wait()
		// Outcome may be success (abort lost every race) or a
		// WorldError — but never a hang (reaching here proves that).
		<-errs
	}
}
