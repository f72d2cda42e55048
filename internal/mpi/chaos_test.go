package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestChaosCrashSurfacesAsCrashError(t *testing.T) {
	w := NewWorld(2)
	w.InjectChaos(ChaosPlan{CrashAtSend: map[int]uint64{1: 3}})
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
	w.InjectChaos(ChaosPlan{CrashAtSend: map[int]uint64{0: 2}})

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

// A crash inside a collective unwinds every rank, peers blocked in the
// tree included, and surfaces as the crashed rank's *CrashError; after
// Reset the same collectives run to their clean results.
func TestChaosCollectivesSurvive(t *testing.T) {
	w := NewWorld(4)
	w.InjectChaos(ChaosPlan{CrashAtSend: map[int]uint64{2: 3}})
	body := func(c *Comm) error {
		buf := []float32{0}
		if c.Rank() == 0 {
			buf[0] = 42
		}
		if buf = c.bcast(buf, 0); buf[0] != 42 {
			return fmt.Errorf("rank %d: bcast got %v", c.Rank(), buf[0])
		}
		if sum := c.Allreduce([]float64{1}, Sum); sum[0] != 4 {
			return fmt.Errorf("rank %d: Allreduce got %v, want 4", c.Rank(), sum[0])
		}
		got := c.Gather([]float32{float32(c.Rank())}, 0)
		for r := range got {
			if got[r][0] != float32(r) {
				return fmt.Errorf("Gather[%d] = %v", r, got[r])
			}
		}
		return nil
	}
	var ce *CrashError
	if err := w.RunErr(body); !errors.As(err, &ce) || ce.Rank != 2 || ce.SendOp != 3 {
		t.Fatalf("RunErr = %v, want rank 2's crash at send op 3", err)
	}
	w.Reset()
	if err := w.RunErr(body); err != nil {
		t.Fatalf("replay after Reset: %v", err)
	}
	if st := w.ChaosStats(); st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", st.Crashes)
	}
}

// TestChaosTreeCollectivesParity: a world whose rank crashed in the middle
// of the tree collectives, reset and run again, produces the bits of a
// world that never crashed, across ragged world sizes, rotating roots and
// interleaved barriers (which send nothing, so no crash counts them).
func TestChaosTreeCollectivesParity(t *testing.T) {
	run := func(w *World, P int) ([][]float64, error) {
		out := make([][]float64, P)
		err := w.RunErr(func(c *Comm) error {
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
			return nil
		})
		return out, err
	}
	for _, P := range []int{3, 8, 23} {
		clean, err := run(NewWorld(P), P)
		if err != nil {
			t.Fatal(err)
		}
		crashed := NewWorld(P)
		crashed.InjectChaos(ChaosPlan{CrashAtSend: map[int]uint64{P - 1: 3}})
		if _, err := run(crashed, P); !errors.As(err, new(*CrashError)) {
			t.Fatalf("P=%d: RunErr = %v, want the scheduled crash", P, err)
		}
		crashed.Reset()
		dirty, err := run(crashed, P)
		if err != nil {
			t.Fatalf("P=%d: replay after Reset: %v", P, err)
		}
		for r := 0; r < P; r++ {
			if len(clean[r]) != len(dirty[r]) {
				t.Fatalf("P=%d rank %d: result length diverged", P, r)
			}
			for i := range clean[r] {
				if math.Float64bits(clean[r][i]) != math.Float64bits(dirty[r][i]) {
					t.Fatalf("P=%d rank %d lane %d: replay %v != clean %v",
						P, r, i, dirty[r][i], clean[r][i])
				}
			}
		}
	}
}
