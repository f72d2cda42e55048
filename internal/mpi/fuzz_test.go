package mpi

import (
	"encoding/binary"
	"math"
	"testing"
)

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
