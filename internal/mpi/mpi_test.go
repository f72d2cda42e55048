package mpi

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestWorldSize(t *testing.T) {
	w := NewWorld(4)
	if w.size != 4 {
		t.Fatalf("size = %d", w.size)
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3})
		} else {
			// The sentinel past the payload shows its length.
			buf := []float32{-1, -1, -1, -1}
			c.MustRecv(buf, 0, 7)
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 || buf[3] != -1 {
				t.Errorf("data = %v", buf)
			}
		}
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			data := []float32{42}
			c.Send(1, 0, data)
			data[0] = -1 // must not affect the in-flight message
		} else {
			buf := make([]float32, 1)
			c.Recv(buf, 0, 0)
			if buf[0] != 42 {
				t.Errorf("got %v, want 42 (send must copy)", buf[0])
			}
		}
	})
}

func TestPerPairFIFOOrdering(t *testing.T) {
	w := NewWorld(2)
	const n = 100
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 5, []float32{float32(i)})
			}
		} else {
			buf := make([]float32, 1)
			for i := 0; i < n; i++ {
				c.Recv(buf, 0, 5)
				if int(buf[0]) != i {
					t.Errorf("message %d arrived out of order: %v", i, buf[0])
					return
				}
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// The paper's async model relies on unique tags: messages sent in one
	// order can be received in another by tag.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float32{1})
			c.Send(1, 2, []float32{2})
			c.Send(1, 3, []float32{3})
		} else {
			buf := make([]float32, 1)
			for _, tag := range []int{3, 1, 2} {
				c.MustRecv(buf, 0, tag)
				if int(buf[0]) != tag {
					t.Errorf("tag %d: got %v", tag, buf[0])
				}
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Each sender's payload is its rank.
			buf := make([]float32, 1)
			seen := map[float32]int{}
			for i := 0; i < 2; i++ {
				c.MustRecv(buf, AnySource, AnyTag)
				seen[buf[0]]++
			}
			if seen[1] != 1 || seen[2] != 1 {
				t.Errorf("senders = %v, want ranks 1 and 2 once each", seen)
			}
		case 1:
			c.Send(0, 11, []float32{1})
		case 2:
			c.Send(0, 22, []float32{2})
		}
	})
}

func TestRecvOverflowError(t *testing.T) {
	w := NewWorld(2)
	err := w.RunErr(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float32{1, 2, 3})
			return nil
		}
		buf := make([]float32, 1)
		if err := c.Recv(buf, 0, 0); err == nil {
			return errors.New("expected overflow error from Recv")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMustRecvOverflowPanicPropagates(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Run propagating rank panic")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float32{1, 2, 3})
		} else {
			buf := make([]float32, 1)
			c.MustRecv(buf, 0, 0)
		}
	})
}

func TestRecvInvalidRankError(t *testing.T) {
	w := NewWorld(2)
	err := w.RunErr(func(c *Comm) error {
		buf := make([]float32, 1)
		if err := c.Recv(buf, 7, 0); err == nil {
			return errors.New("expected invalid-rank error from Recv")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	w := NewWorld(8)
	var phase atomic.Int32
	w.Run(func(c *Comm) {
		for iter := 0; iter < 20; iter++ {
			if c.Rank() == iter%8 {
				time.Sleep(time.Microsecond)
				phase.Store(int32(iter))
			}
			c.Barrier()
			if got := phase.Load(); got != int32(iter) {
				t.Errorf("iter %d: rank %d saw phase %d", iter, c.Rank(), got)
				return
			}
			c.Barrier()
		}
	})
}

func TestBcast(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		buf := make([]float32, 3)
		if c.Rank() == 2 {
			copy(buf, []float32{9, 8, 7})
		}
		buf = c.bcast(buf, 2)
		if buf[0] != 9 || buf[1] != 8 || buf[2] != 7 {
			t.Errorf("rank %d: bcast got %v", c.Rank(), buf)
		}
	})
}

func TestReduceSumMaxMin(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		v := []float64{float64(c.Rank() + 1), float64(-c.Rank())}
		got := c.Reduce(v, Sum, 0)
		if c.Rank() == 0 {
			if got[0] != 10 || got[1] != -6 {
				t.Errorf("reduce sum = %v", got)
			}
		}
		gmax := c.Allreduce([]float64{float64(c.Rank())}, Max)
		if gmax[0] != 3 {
			t.Errorf("rank %d allreduce max = %v", c.Rank(), gmax)
		}
		gmin := c.Allreduce([]float64{float64(c.Rank())}, Min)
		if gmin[0] != 0 {
			t.Errorf("rank %d allreduce min = %v", c.Rank(), gmin)
		}
	})
}

func TestAllreducePrecision(t *testing.T) {
	// float64 values ride the float32 transport as the two halves of their
	// bit pattern: the sum is exactly the tree's fold, (v0+v1)+v2.
	v := func(r int) float64 { return 1.0 + 1e-12*float64(r) }
	want := (v(0) + v(1)) + v(2)
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		got := c.Allreduce([]float64{v(c.Rank())}, Sum)
		if math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Errorf("allreduce: got %.17g want %.17g", got[0], want)
		}
	})
}

func TestGatherUnequalSizes(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		data := make([]float32, c.Rank()+1)
		for i := range data {
			data[i] = float32(c.Rank()*10 + i)
		}
		out := c.Gather(data, 0)
		if c.Rank() != 0 {
			if out != nil {
				t.Errorf("non-root gather result should be nil")
			}
			return
		}
		for r := 0; r < 3; r++ {
			if len(out[r]) != r+1 {
				t.Errorf("rank %d payload len = %d", r, len(out[r]))
			}
			for i, v := range out[r] {
				if int(v) != r*10+i {
					t.Errorf("out[%d][%d] = %v", r, i, v)
				}
			}
		}
	})
}

func TestPanicPropagationNoDeadlock(t *testing.T) {
	w := NewWorld(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected Run to re-panic")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block on a recv that will never be satisfied; abort
		// must wake them.
		defer func() { recover() }() // swallow the induced "aborted" panic
		buf := make([]float32, 1)
		c.Recv(buf, 1, 99)
	})
}

func TestRingPassing(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		buf := make([]float32, 1)
		if c.Rank() == 0 {
			c.Send(next, 0, []float32{1})
			c.Recv(buf, prev, 0)
			if buf[0] != float32(n) {
				t.Errorf("ring total = %v, want %d", buf[0], n)
			}
		} else {
			c.Recv(buf, prev, 0)
			c.Send(next, 0, []float32{buf[0] + 1})
		}
	})
}

// Property: with random point-to-point traffic over random tags, every
// message sent is received exactly once with intact payload.
func TestQuickRandomTraffic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + rng.Intn(4)
		nmsg := 1 + rng.Intn(8)
		w := NewWorld(size)
		total := make([]float64, size) // per-destination expected sums
		type planned struct {
			dst, tag int
			val      float32
		}
		plans := make([][]planned, size)
		for s := 0; s < size; s++ {
			for m := 0; m < nmsg; m++ {
				d := rng.Intn(size)
				v := rng.Float32()
				plans[s] = append(plans[s], planned{d, s*1000 + m, v})
				total[d] += float64(v)
			}
		}
		counts := make([]int, size)
		for s := range plans {
			for _, p := range plans[s] {
				counts[p.dst]++
			}
		}
		sums := make([]float64, size)
		w.Run(func(c *Comm) {
			for _, p := range plans[c.Rank()] {
				c.Send(p.dst, p.tag, []float32{p.val})
			}
			buf := make([]float32, 1)
			var local float64
			for i := 0; i < counts[c.Rank()]; i++ {
				c.Recv(buf, AnySource, AnyTag)
				local += float64(buf[0])
			}
			sums[c.Rank()] = local
		})
		for r := range sums {
			if math.Abs(sums[r]-total[r]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCartCoordsRankRoundTrip(t *testing.T) {
	topo := NewCart(3, 4, 2)
	if topo.Size() != 24 {
		t.Fatalf("Size = %d", topo.Size())
	}
	for r := 0; r < topo.Size(); r++ {
		cx, cy, cz := topo.Coords(r)
		if got := topo.Rank(cx, cy, cz); got != r {
			t.Fatalf("round trip failed: %d -> (%d,%d,%d) -> %d", r, cx, cy, cz, got)
		}
	}
}

func TestCartNeighbors(t *testing.T) {
	topo := NewCart(2, 2, 2)
	r := topo.Rank(0, 0, 0)
	if n := topo.Neighbor(r, 0, -1); n != -1 {
		t.Errorf("low-x neighbor of corner = %d, want -1", n)
	}
	if n := topo.Neighbor(r, 0, +1); n != topo.Rank(1, 0, 0) {
		t.Errorf("high-x neighbor = %d", n)
	}
	if n := topo.Neighbor(r, 1, +1); n != topo.Rank(0, 1, 0) {
		t.Errorf("high-y neighbor = %d", n)
	}
	if n := topo.Neighbor(r, 2, +1); n != topo.Rank(0, 0, 1) {
		t.Errorf("high-z neighbor = %d", n)
	}
	if !topo.OnBoundary(r, 0, -1) || topo.OnBoundary(r, 0, +1) {
		t.Error("OnBoundary wrong for corner rank")
	}
}

func TestCartPanics(t *testing.T) {
	topo := NewCart(2, 2, 2)
	cases := []func(){
		func() { NewCart(0, 1, 1) },
		func() { topo.Coords(8) },
		func() { topo.Rank(2, 0, 0) },
		func() { topo.Neighbor(0, 3, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNeighborSymmetry(t *testing.T) {
	topo := NewCart(3, 2, 4)
	for r := 0; r < topo.Size(); r++ {
		for axis := 0; axis < 3; axis++ {
			for _, dir := range []int{-1, 1} {
				n := topo.Neighbor(r, axis, dir)
				if n == -1 {
					continue
				}
				if back := topo.Neighbor(n, axis, -dir); back != r {
					t.Fatalf("asymmetric: %d -> %d -> %d", r, n, back)
				}
			}
		}
	}
}
