package mpi

import (
	"sync"
	"testing"
)

func TestSendOwnedRecvTakeRoundTrip(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := GetBuffer(3)
			buf[0], buf[1], buf[2] = 4, 5, 6
			c.SendOwned(1, 9, buf)
			// Ownership transferred: sender must not touch buf again.
		} else {
			got := c.MustRecvTake(0, 9)
			if len(got) != 3 || got[0] != 4 || got[1] != 5 || got[2] != 6 {
				t.Errorf("data = %v", got)
			}
			PutBuffer(got)
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

func TestSendOwnedIrecvTakeData(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := GetBuffer(2)
			buf[0], buf[1] = 7, 8
			c.SendOwned(1, 3, buf)
		} else {
			req := c.IrecvTake(0, 3)
			req.Wait()
			data := req.Data()
			if len(data) != 2 || data[0] != 7 || data[1] != 8 {
				t.Errorf("data = %v", data)
			}
			PutBuffer(data)
		}
	})
}

func TestBufferPoolRecycles(t *testing.T) {
	// Drain-then-observe: after a Put, the next Get of a size in the same
	// power-of-two class returns the recycled backing array.
	b := GetBuffer(100)
	base := &b[0]
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want the 128 half-step class", cap(b))
	}
	PutBuffer(b)
	c := GetBuffer(110) // same class: 96 < 110 <= 128
	if &c[0] != base {
		t.Error("buffer not recycled within its size class")
	}
	if len(c) != 110 {
		t.Errorf("len = %d, want 110", len(c))
	}
	PutBuffer(c)
}

func TestGetBufferCapacityInvariant(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65, 1000} {
		b := GetBuffer(n)
		if len(b) != n {
			t.Fatalf("len = %d, want %d", len(b), n)
		}
		PutBuffer(b)
		// Refetch the full class capacity: must still satisfy the request.
		b2 := GetBuffer(cap(b))
		if len(b2) != cap(b) {
			t.Fatalf("class-capacity refetch: len = %d, want %d", len(b2), cap(b))
		}
		PutBuffer(b2)
	}
}

func TestBufferPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (seed*31+i*7)%500
				b := GetBuffer(n)
				if len(b) != n {
					t.Errorf("len = %d, want %d", len(b), n)
					return
				}
				b[0] = float32(n)
				PutBuffer(b)
			}
		}(g)
	}
	wg.Wait()
}
