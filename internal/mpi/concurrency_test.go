package mpi

import (
	"math/rand"
	"sync"
	"testing"
)

// TestBufpoolConcurrentGetPut hammers the sharded free lists from many
// goroutines mixing sizes that map to the same and different classes.
// Run under -race this exercises the shard locks and the round-robin
// cursor; the assertions catch cross-class leaks (a Get that returns a
// buffer with less capacity than requested).
func TestBufpoolConcurrentGetPut(t *testing.T) {
	sizes := []int{1, 3, 96, 97, 128, 1000, 1024, 1536, 1537, 4096}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([][]float32, 0, 16)
			for i := 0; i < 4000; i++ {
				n := sizes[rng.Intn(len(sizes))]
				b := GetBuffer(n)
				if len(b) != n || cap(b) < n {
					t.Errorf("GetBuffer(%d): len %d cap %d", n, len(b), cap(b))
					return
				}
				b[0] = float32(n) // touch, so -race sees any sharing
				held = append(held, b)
				// Return buffers in bursts and out of order to keep the
				// free lists churning across shards.
				if len(held) == cap(held) || rng.Intn(4) == 0 {
					rng.Shuffle(len(held), func(i, j int) {
						held[i], held[j] = held[j], held[i]
					})
					for _, h := range held {
						PutBuffer(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				PutBuffer(h)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestConcurrentTaggedReceives runs many receiver goroutines on one rank,
// each matching its own tag, against a sender that emits the tags in a
// shuffled order every round. This drives takeMatch's head-cursor inbox
// down both paths (head-of-queue pop and interior extraction) under
// contention, and checks the per-(source, tag) FIFO guarantee: round
// numbers must arrive in order within a tag even though tags interleave
// arbitrarily. Run with -race to check the inbox and bufpool locking.
func TestConcurrentTaggedReceives(t *testing.T) {
	const (
		tags   = 16
		rounds = 50
	)
	NewWorld(2).Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			rng := rand.New(rand.NewSource(42))
			order := make([]int, tags)
			for i := range order {
				order[i] = i
			}
			for round := 0; round < rounds; round++ {
				rng.Shuffle(len(order), func(i, j int) {
					order[i], order[j] = order[j], order[i]
				})
				for _, tag := range order {
					b := GetBuffer(3)
					b[0] = float32(tag)
					b[1] = float32(round)
					b[2] = float32(tag*rounds + round)
					c.SendOwned(1, tag, b)
				}
			}
		case 1:
			var wg sync.WaitGroup
			for tag := 0; tag < tags; tag++ {
				wg.Add(1)
				go func(tag int) {
					defer wg.Done()
					buf := make([]float32, 4)
					for round := 0; round < rounds; round++ {
						var got []float32
						// Alternate the copying and zero-copy receive
						// paths; both must preserve FIFO order.
						if round%2 == 0 {
							buf[3] = -1 // a sentinel past the payload
							c.MustRecv(buf, 0, tag)
							if buf[3] != -1 {
								t.Errorf("tag %d: payload longer than 3", tag)
								return
							}
							got = buf
						} else {
							taken := c.MustRecvTake(0, tag)
							if len(taken) != 3 {
								t.Errorf("tag %d: count %d", tag, len(taken))
								return
							}
							got = taken
						}
						if got[0] != float32(tag) || got[1] != float32(round) ||
							got[2] != float32(tag*rounds+round) {
							t.Errorf("tag %d round %d: got (%g,%g,%g)",
								tag, round, got[0], got[1], got[2])
							return
						}
						if round%2 == 1 {
							PutBuffer(got)
						}
					}
				}(tag)
			}
			wg.Wait()
		}
	})
}
