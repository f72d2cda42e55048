package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// treeFold is the serial reference for Reduce to root 0: the binomial
// tree's combines in its order — at each level, rank rel (a multiple of
// 2·mask) folds in the partial of rank rel+mask.
func treeFold(vals []float64, op Op) float64 {
	acc := append([]float64(nil), vals...)
	for mask := 1; mask < len(acc); mask <<= 1 {
		for rel := 0; rel+mask < len(acc); rel += 2 * mask {
			acc[rel] = op(acc[rel], acc[rel+mask])
		}
	}
	return acc[0]
}

// TestReductionsExact: Min, Max and Sum over 2…9 ranks return, on every
// rank, what a serial fold in the tree's order returns, bit for bit — for
// full-mantissa values, values far below float32's range (1e-50) and far
// above it (1e300), and ±Inf.
func TestReductionsExact(t *testing.T) {
	lanes := []func(r int) float64{
		func(r int) float64 { return math.Pi * (1 + float64(r)/7) },
		func(r int) float64 { return 1e-50 * (1 + float64(r)/3) },
		func(r int) float64 { return 1e300 * (1 + float64(r)/5) },
		func(r int) float64 { return float64(r%3) - 1 },
		func(r int) float64 {
			if r == 1 {
				return math.Inf(1)
			}
			return -float64(r)
		},
		func(r int) float64 {
			if r == 0 {
				return math.Inf(-1)
			}
			return 1 / 3.0 * float64(r)
		},
	}
	for _, op := range []struct {
		name string
		op   Op
	}{{"min", Min}, {"max", Max}, {"sum", Sum}} {
		for P := 2; P <= 9; P++ {
			want := make([]float64, len(lanes))
			for l, f := range lanes {
				vals := make([]float64, P)
				for r := range vals {
					vals[r] = f(r)
				}
				want[l] = treeFold(vals, op.op)
			}
			got := make([][]float64, P)
			NewWorld(P).Run(func(c *Comm) {
				in := make([]float64, len(lanes))
				for l, f := range lanes {
					in[l] = f(c.Rank())
				}
				got[c.Rank()] = c.Allreduce(in, op.op)
			})
			for r := range got {
				for l := range lanes {
					if math.Float64bits(got[r][l]) != math.Float64bits(want[l]) {
						t.Errorf("%s P=%d rank %d lane %d: %.17g, serial tree fold %.17g",
							op.name, P, r, l, got[r][l], want[l])
					}
				}
			}
		}
	}
}

// FuzzBytesWords: encodeBytes then decodeBytes is the identity on any byte
// string, and any word message decodes to bytes or to an error, never a
// panic.
func FuzzBytesWords(f *testing.F) {
	for n := 0; n <= 8; n++ { // the empty input and every tail length 0–3
		f.Add([]byte("abcdefgh")[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		w := encodeBytes(b)
		if len(w) != 1+(len(b)+3)/4 {
			t.Fatalf("%d bytes encoded into %d words", len(b), len(w))
		}
		if got, err := decodeBytes(w); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("round trip of %d bytes: %v, %v", len(b), got, err)
		}
		words := make([]float32, len(b)/4)
		for i := range words {
			words[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		if out, err := decodeBytes(words); err == nil && len(out) > 4*len(words) {
			t.Fatalf("%d words decoded to %d bytes", len(words), len(out))
		}
	})
}

type fuzzReport struct {
	Rank  int
	Name  string
	Vals  []float32
	Pairs [][2]int64
}

// FuzzGatherValueCorrupt: a value message cut short or with one bit
// flipped reaches GatherValue on the root, which returns the value or an
// error, never a panic.
func FuzzGatherValueCorrupt(f *testing.F) {
	f.Add(uint(0), uint(0), false)
	f.Add(uint(1), uint(0), false)
	f.Add(uint(40), uint(0), false)
	f.Add(uint(0), uint(7), true)
	f.Add(uint(0), uint(1000), true)
	f.Fuzz(func(t *testing.T, cut, bit uint, flip bool) {
		sent := fuzzReport{Rank: 1, Name: "rank one", Vals: []float32{1.5, -2, 3e-39}, Pairs: [][2]int64{{1, -1}, {1 << 40, 7}}}
		msg, err := encodeValue(sent)
		if err != nil {
			t.Fatal(err)
		}
		if flip {
			i := int(bit/32) % len(msg)
			msg[i] = math.Float32frombits(math.Float32bits(msg[i]) ^ 1<<(bit%32))
		} else {
			msg = msg[:len(msg)-int(cut%uint(len(msg)+1))]
		}
		var got []fuzzReport
		var gerr error
		NewWorld(2).Run(func(c *Comm) {
			if c.Rank() == 1 {
				c.Send(0, tagGather, msg) // what GatherValue on rank 1 sends
				return
			}
			got, gerr = GatherValue(c, fuzzReport{Name: "root"}, 0)
		})
		if gerr == nil && (len(got) != 2 || got[0].Name != "root") {
			t.Fatalf("GatherValue returned %+v and no error", got)
		}
		if !flip && cut == 0 && (gerr != nil || got[1].Name != sent.Name || got[1].Pairs[1] != sent.Pairs[1]) {
			t.Fatalf("intact message: %+v, %v", got, gerr)
		}
	})
}

// TestBcastValueAndGatherValue: every rank returns root's value; gathered
// values arrive indexed by rank.
func TestBcastValueAndGatherValue(t *testing.T) {
	type stats struct {
		N    int
		Time float64
		Name string
	}
	NewWorld(5).Run(func(c *Comm) {
		v := stats{N: -1}
		if c.Rank() == 3 {
			v = stats{N: 1 << 40, Time: 1e-300, Name: "three"}
		}
		got, err := BcastValue(c, v, 3)
		if err != nil || got != (stats{N: 1 << 40, Time: 1e-300, Name: "three"}) {
			t.Errorf("rank %d: BcastValue = %+v, %v", c.Rank(), got, err)
		}
		all, err := GatherValue(c, stats{N: c.Rank(), Time: float64(c.Rank()) / 3}, 2)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if c.Rank() != 2 {
			if all != nil {
				t.Errorf("rank %d: non-root got %v", c.Rank(), all)
			}
			return
		}
		for r, s := range all {
			if s.N != r || s.Time != float64(r)/3 {
				t.Errorf("GatherValue[%d] = %+v", r, s)
			}
		}
	})
}
