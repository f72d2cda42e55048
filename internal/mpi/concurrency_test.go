package mpi

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentTaggedReceives runs many receiver goroutines on one rank,
// each matching its own tag, against a sender that emits the tags in a
// shuffled order every round. This drives takeMatch's head-cursor inbox
// down both paths (head-of-queue pop and interior extraction) under
// contention, and checks the per-(source, tag) FIFO guarantee: round
// numbers must arrive in order within a tag even though tags interleave
// arbitrarily. Run with -race to check the inbox locking.
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
					c.SendOwned(1, tag, []float32{float32(tag), float32(round), float32(tag*rounds + round)})
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
					}
				}(tag)
			}
			wg.Wait()
		}
	})
}
