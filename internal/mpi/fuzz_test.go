package mpi

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzBufpoolClasses checks the half-step size-class arithmetic that the
// buffer-lending pool relies on: a Get must always receive enough
// capacity, round-up waste must stay under 50%, and a buffer returned by
// PutBuffer must land in a class whose nominal capacity a future Get can
// trust.
func FuzzBufpoolClasses(f *testing.F) {
	f.Add(1)
	f.Add(2)
	f.Add(3)
	f.Add(4)
	f.Add(1023)
	f.Add(1024)
	f.Add(1025)
	f.Add(3 << 10)
	f.Add(3<<10 + 1)
	f.Add(2 * 34 * 18) // a typical coalesced X-face: 2 planes of 34x18
	f.Fuzz(func(t *testing.T, n int) {
		if n < 1 {
			n = 1 - n
		}
		n = n%(1<<22) + 1

		c := classFor(n)
		capc := classCapacity(c)
		if capc < n {
			t.Fatalf("classFor(%d) = %d with capacity %d < n", n, c, capc)
		}
		// Class 1 (nominal capacity 3/2) is a phantom: classFor and
		// putClassFor both skip it, and classCapacity is undefined there.
		if prev := c - 1; prev >= 0 && prev != 1 && classCapacity(prev) >= n {
			t.Fatalf("classFor(%d) = %d not minimal: class %d capacity %d suffices",
				n, c, prev, classCapacity(prev))
		}
		// Half steps cap the round-up waste: 2*cap < 3*n for n >= 2.
		if n >= 2 && 2*capc >= 3*n {
			t.Fatalf("class capacity %d wastes more than 50%% over n=%d", capc, n)
		}
		// A pooled buffer is stored at exactly its nominal capacity, so
		// put(get(n)) must be the identity on classes.
		if got := putClassFor(capc); got != c {
			t.Fatalf("putClassFor(classCapacity(%d)) = %d, want %d", c, got, c)
		}
		// One value short of nominal must demote to a smaller class —
		// otherwise a Get could hand out undersized capacity.
		if capc > 1 {
			if got := putClassFor(capc - 1); got >= c {
				t.Fatalf("putClassFor(%d) = %d, want < %d", capc-1, got, c)
			}
		}
		if pc := putClassFor(n); classCapacity(pc) > n {
			t.Fatalf("putClassFor(%d) = %d overstates capacity %d",
				n, pc, classCapacity(pc))
		}

		b := GetBuffer(n)
		if len(b) != n {
			t.Fatalf("GetBuffer(%d) len = %d", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuffer(%d) cap = %d", n, cap(b))
		}
		PutBuffer(b)
		// Round trip: the recycled buffer must come back with full
		// length available for any request its class covers.
		b2 := GetBuffer(capc)
		if len(b2) != capc {
			t.Fatalf("GetBuffer(%d) after recycle: len = %d", capc, len(b2))
		}
		PutBuffer(b2)
	})
}

// FuzzTreeAllreduce drives arbitrary float64 vectors — NaN, ±Inf,
// subnormals and the extremes included — through the binomial-tree
// Allreduce, where a partial is unpacked, combined and re-packed at every
// level. Every rank must return, bit for bit, the serial fold in the
// tree's order (treeFold), so all-zero lanes come back exactly zero.
func FuzzTreeAllreduce(f *testing.F) {
	// Seed: a gather by Max — a zero-filled vector where each rank owns one
	// lane holding its (always positive) stable dt.
	laneSeed := make([]byte, 4*8)
	binary.LittleEndian.PutUint64(laneSeed[0:], math.Float64bits(3.61e-3))
	binary.LittleEndian.PutUint64(laneSeed[8:], math.Float64bits(0))
	binary.LittleEndian.PutUint64(laneSeed[16:], math.Float64bits(7.2e-3))
	binary.LittleEndian.PutUint64(laneSeed[24:], math.Float64bits(0))
	f.Add(7, 0, laneSeed)
	f.Add(2, 1, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(8, 2, laneSeed[:8])
	f.Add(9, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, p, opSel int, raw []byte) {
		if p < 0 {
			p = -p
		}
		P := 2 + p%8 // real worlds of 2..9 ranks: even, odd, ragged trees
		lanes := min(len(raw)/8, 8)
		if lanes == 0 {
			return
		}
		if opSel < 0 {
			opSel = -opSel
		}
		op := []Op{Max, Min, Sum}[opSel%3]
		opName := []string{"max", "min", "sum"}[opSel%3]

		// Rank r contributes the raw lanes scaled by a rank-dependent
		// factor, so lanes disagree across ranks.
		contrib := func(r, lane int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*lane:])) * (1 + float64(r)/8)
		}
		ref := make([]float64, lanes)
		for lane := range ref {
			vals := make([]float64, P)
			for r := range vals {
				vals[r] = contrib(r, lane)
			}
			ref[lane] = treeFold(vals, op)
		}

		results := make([][]float64, P)
		NewWorld(P).Run(func(c *Comm) {
			in := make([]float64, lanes)
			for lane := range in {
				in[lane] = contrib(c.Rank(), lane)
			}
			results[c.Rank()] = c.Allreduce(in, op)
		})
		for r := range results {
			for lane := range ref {
				if math.Float64bits(results[r][lane]) != math.Float64bits(ref[lane]) {
					t.Fatalf("%s P=%d: rank %d lane %d = %.17g, serial tree fold %.17g",
						opName, P, r, lane, results[r][lane], ref[lane])
				}
			}
		}
	})
}
