package mpi

import (
	"errors"
	"math"
	"testing"
)

// pingPong runs a 2-rank ping-pong of n round trips and returns rank 0's
// received payload sums (one per round trip) for bit-identity checks.
func pingPong(w *World, n int) []float32 {
	sums := make([]float32, n)
	w.Run(func(c *Comm) {
		buf := make([]float32, 4)
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, []float32{float32(i), 2, 3, 4})
				c.MustRecv(buf, 1, i)
				sums[i] = buf[0] + buf[1] + buf[2] + buf[3]
			} else {
				c.MustRecv(buf, 0, i)
				for j := range buf {
					buf[j] *= 2
				}
				c.Send(0, i, buf)
			}
		}
	})
	return sums
}

func TestChaosDropRetryDelivers(t *testing.T) {
	clean := pingPong(NewWorld(2), 50)

	w := NewWorld(2)
	w.InjectChaos(ChaosPlan{Seed: 42, DropProb: 0.3})
	got := pingPong(w, 50)

	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("round %d: got %v, want %v (drop+retry must be transparent)", i, got[i], clean[i])
		}
	}
	st := w.ChaosStats()
	if st.Dropped == 0 {
		t.Fatal("expected some dropped transmissions at DropProb=0.3")
	}
	if st.Retries < st.Dropped {
		t.Fatalf("every drop needs a retry: dropped=%d retries=%d", st.Dropped, st.Retries)
	}
	if st.Delivered == 0 {
		t.Fatal("no messages delivered")
	}
}

func TestChaosCorruptionCaughtByChecksum(t *testing.T) {
	clean := pingPong(NewWorld(2), 50)

	w := NewWorld(2)
	w.InjectChaos(ChaosPlan{Seed: 7, CorruptProb: 0.25})
	got := pingPong(w, 50)

	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("round %d: got %v, want %v (corruption must never reach the app)", i, got[i], clean[i])
		}
	}
	st := w.ChaosStats()
	if st.Corrupted == 0 {
		t.Fatal("expected some corrupted transmissions at CorruptProb=0.25")
	}
	if st.ChecksumRejects == 0 {
		t.Fatal("receiver never rejected a corrupt payload")
	}
	if st.ChecksumRejects > st.Corrupted {
		t.Fatalf("rejects=%d > corrupted=%d", st.ChecksumRejects, st.Corrupted)
	}
}

func TestChaosDelayOnlyPerturbsTiming(t *testing.T) {
	clean := pingPong(NewWorld(2), 30)

	w := NewWorld(2)
	w.InjectChaos(ChaosPlan{Seed: 3, DelayProb: 0.5})
	got := pingPong(w, 30)

	for i := range clean {
		if got[i] != clean[i] {
			t.Fatalf("round %d: got %v, want %v", i, got[i], clean[i])
		}
	}
	if st := w.ChaosStats(); st.Delayed == 0 {
		t.Fatal("expected some delayed transmissions at DelayProb=0.5")
	}
}

func TestChaosDeterministicStats(t *testing.T) {
	run := func() ChaosStats {
		w := NewWorld(2)
		w.InjectChaos(ChaosPlan{Seed: 99, DropProb: 0.2, CorruptProb: 0.1, DelayProb: 0.1})
		pingPong(w, 40)
		return w.ChaosStats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault sequences:\n a=%+v\n b=%+v", a, b)
	}
	if a.Dropped == 0 || a.Corrupted == 0 || a.Delayed == 0 {
		t.Fatalf("expected all armed fault classes to fire: %+v", a)
	}
}

func TestChaosCrashSurfacesAsCrashError(t *testing.T) {
	w := NewWorld(2)
	w.InjectChaos(ChaosPlan{Seed: 1, CrashAtSend: map[int]uint64{1: 3}})
	err := w.RunErr(func(c *Comm) error {
		buf := make([]float32, 1)
		for i := 0; i < 10; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, []float32{1})
				if err := c.Recv(buf, 1, i); err != nil {
					return err
				}
			} else {
				if err := c.Recv(buf, 0, i); err != nil {
					return err
				}
				c.Send(0, i, buf)
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected RunErr to surface the injected crash")
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error chain lacks *CrashError: %v", err)
	}
	if ce.Rank != 1 || ce.SendOp != 3 {
		t.Fatalf("CrashError = %+v, want rank 1 at send op 3", ce)
	}
	var we *WorldError
	if !errors.As(err, &we) {
		t.Fatalf("error is not a *WorldError: %v", err)
	}
	if st := w.ChaosStats(); st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", st.Crashes)
	}
}

func TestChaosCrashFiresOnceAcrossReset(t *testing.T) {
	w := NewWorld(2)
	w.InjectChaos(ChaosPlan{Seed: 1, CrashAtSend: map[int]uint64{0: 2}})

	body := func(c *Comm) error {
		buf := make([]float32, 1)
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, []float32{float32(i)})
			} else {
				if err := c.Recv(buf, 0, i); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if err := w.RunErr(body); err == nil {
		t.Fatal("first run should crash")
	}
	w.Reset()
	if err := w.RunErr(body); err != nil {
		t.Fatalf("replay after Reset should be clean (crash already fired): %v", err)
	}
	if st := w.ChaosStats(); st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want exactly 1 across Reset", st.Crashes)
	}
}

func TestResetRestoresAbortedWorld(t *testing.T) {
	w := NewWorld(2)
	err := w.RunErr(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		buf := make([]float32, 1)
		err := c.Recv(buf, 0, 0) // woken by abort with an error
		return err
	})
	if err == nil {
		t.Fatal("expected first run to fail")
	}
	var re *RankError
	if !errors.As(err, &re) || !re.Panicked {
		t.Fatalf("expected a panicked *RankError, got %v", err)
	}
	if !errors.Is(err, ErrWorldAborted) && len(err.(*WorldError).Errs) < 1 {
		t.Fatalf("unexpected error shape: %v", err)
	}

	w.Reset()
	if err := w.RunErr(func(c *Comm) error {
		buf := make([]float32, 1)
		if c.Rank() == 0 {
			c.Send(1, 0, []float32{5})
		} else {
			if err := c.Recv(buf, 0, 0); err != nil {
				return err
			}
			if buf[0] != 5 {
				t.Errorf("payload = %v, want 5", buf[0])
			}
		}
		c.Barrier()
		return nil
	}); err != nil {
		t.Fatalf("world unusable after Reset: %v", err)
	}
}

func TestChaosCollectivesSurvive(t *testing.T) {
	// Collectives ride the same chaos transport; drop+corrupt must stay
	// invisible to bcast/Allreduce/Gather semantics.
	w := NewWorld(4)
	w.InjectChaos(ChaosPlan{Seed: 11, DropProb: 0.15, CorruptProb: 0.1})
	w.Run(func(c *Comm) {
		buf := []float32{0}
		if c.Rank() == 0 {
			buf[0] = 42
		}
		buf = c.bcast(buf, 0)
		if buf[0] != 42 {
			t.Errorf("rank %d: Bcast got %v", c.Rank(), buf[0])
		}
		sum := c.Allreduce([]float64{1}, Sum)
		if sum[0] != 4 {
			t.Errorf("rank %d: Allreduce got %v, want 4", c.Rank(), sum[0])
		}
		got := c.Gather([]float32{float32(c.Rank())}, 0)
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				if got[r][0] != float32(r) {
					t.Errorf("Gather[%d] = %v", r, got[r])
				}
			}
		}
	})
	st := w.ChaosStats()
	if st.Dropped+st.Corrupted == 0 {
		t.Fatal("chaos never fired on collectives")
	}
}

func TestChecksumZeroRemap(t *testing.T) {
	if checksum(nil) == 0 {
		t.Fatal("checksum must never return the unchecked sentinel 0")
	}
	a := checksum([]float32{1, 2, 3})
	b := checksum([]float32{1, 2, 4})
	if a == b {
		t.Fatal("checksum failed to distinguish different payloads")
	}
}

func TestChaosTreeCollectivesParity(t *testing.T) {
	// The tree collectives multiplied the distinct (sender, receiver)
	// pairs a collective exercises — every tree edge, not just
	// root-to-leaf — so each edge now runs the reliable-transport
	// simulation independently. Parity check: a chaos-hammered world
	// must produce bit-identical collective results to a fault-free
	// one, across ragged world sizes, rotating roots, and interleaved
	// barriers (which are message-free and must neither trip chaos nor
	// be perturbed by it).
	run := func(w *World, P int) [][]float64 {
		out := make([][]float64, P)
		w.Run(func(c *Comm) {
			var acc []float64
			for round := 0; round < 4; round++ {
				root := (round * 5) % P
				buf := make([]float32, 3)
				if c.Rank() == root {
					buf[0], buf[1], buf[2] = float32(round), 2, 3
				}
				buf = c.bcast(buf, root)
				acc = append(acc, float64(buf[0]), float64(buf[1]), float64(buf[2]))
				c.Barrier()
				red := c.Reduce([]float64{float64(c.Rank() + round)}, Sum, root)
				if c.Rank() == root {
					acc = append(acc, red...)
				}
				all := c.Allreduce([]float64{float64(c.Rank()), -float64(c.Rank())}, Min)
				acc = append(acc, all...)
				c.Barrier()
			}
			out[c.Rank()] = acc
		})
		return out
	}
	for _, P := range []int{3, 8, 23} {
		clean := run(NewWorld(P), P)
		chaotic := NewWorld(P)
		chaotic.InjectChaos(ChaosPlan{
			Seed: 77, DropProb: 0.12, CorruptProb: 0.1, DelayProb: 0.05,
		})
		dirty := run(chaotic, P)
		for r := 0; r < P; r++ {
			if len(clean[r]) != len(dirty[r]) {
				t.Fatalf("P=%d rank %d: result length diverged", P, r)
			}
			for i := range clean[r] {
				if math.Float64bits(clean[r][i]) != math.Float64bits(dirty[r][i]) {
					t.Fatalf("P=%d rank %d lane %d: chaos-on %v != chaos-off %v",
						P, r, i, dirty[r][i], clean[r][i])
				}
			}
		}
		if st := chaotic.ChaosStats(); st.Dropped+st.Corrupted == 0 {
			t.Fatalf("P=%d: chaos never fired on the tree collectives", P)
		}
	}
}
