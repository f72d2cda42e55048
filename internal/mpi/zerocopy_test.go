package mpi

import "testing"

func TestSendOwnedRecvTakeRoundTrip(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{4, 5, 6}
			c.SendOwned(1, 9, buf)
			// Ownership transferred: sender must not touch buf again.
		} else {
			got := c.MustRecvTake(0, 9)
			if len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
				t.Errorf("data = %v", got)
			}
		}
	})
}

func TestSendOwnedDoesNotCopy(t *testing.T) {
	// The whole point of the lending path: the receiver observes the very
	// slice the sender lent (same backing array), not a copy.
	w := NewWorld(2)
	probe := make([]float32, 1, 8)
	probe[0] = 1
	done := make(chan []float32, 1)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 0, probe)
		} else {
			got := c.MustRecvTake(0, 0)
			done <- got
		}
	})
	got := <-done
	if &got[0] != &probe[0] {
		t.Error("RecvTake returned a different backing array; message was copied")
	}
}
