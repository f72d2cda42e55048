package grid

import (
	"fmt"
	"math"
	"testing"
)

// narrowSentinel marks values a block copy must not touch.
var narrowSentinel = math.Float32frombits(0x7fa5a5a5)

// narrowBlock is a block [i0,i1)x[j0,j1)x[k0,k1) of a field of dims d.
type narrowBlock struct {
	d                      Dims
	i0, i1, j0, j1, k0, k1 int
}

// narrowBlocks are blocks of rows 1–4 values wide — on both sides of
// narrowRow — inside the interior and reaching into the ghost frame on every
// face, as an unpack into ghost planes does (i0 = −Ghost), on fields whose
// rows are short enough to be narrow whole.
func narrowBlocks() []narrowBlock {
	var out []narrowBlock
	for _, d := range []Dims{{NX: 7, NY: 5, NZ: 4}, {NX: 2, NY: 3, NZ: 2}, {NX: 1, NY: 1, NZ: 1}} {
		for w := 1; w <= 4; w++ {
			for _, i0 := range []int{-Ghost, 0, 1, d.NX - w, d.NX + Ghost - w} {
				if i0 < -Ghost || i0+w > d.NX+Ghost {
					continue
				}
				out = append(out,
					narrowBlock{d, i0, i0 + w, 0, d.NY, 0, d.NZ},
					narrowBlock{d, i0, i0 + w, -Ghost, d.NY + Ghost, -Ghost, d.NZ + Ghost},
					narrowBlock{d, i0, i0 + w, d.NY - 1, d.NY + 1, -1, 1})
			}
		}
	}
	return out
}

// TestNarrowCopyMatchesRowCopies holds copyBlock — copyNarrow for rows of up
// to narrowRow values — to copyRows, its copy call a row, bit for bit on
// both sides: a pack fills exactly its section of a sentinel buffer with the
// block's values in x-fastest order, and an unpack stores the section into
// the block and leaves every other value of the field, ghosts included, as
// it was.
func TestNarrowCopyMatchesRowCopies(t *testing.T) {
	for _, b := range narrowBlocks() {
		label := fmt.Sprintf("%v block [%d,%d)x[%d,%d)x[%d,%d)", b.d, b.i0, b.i1, b.j0, b.j1, b.k0, b.k1)
		n := RangeLen(b.i0, b.i1, b.j0, b.j1, b.k0, b.k1)
		const off = 3
		f := NewField3G(b.d, Ghost)
		for i := range f.data {
			f.data[i] = float32(i) + 0.5
		}
		var bufs [2][]float32
		for side := range bufs {
			bufs[side] = make([]float32, off+n+4)
			for i := range bufs[side] {
				bufs[side][i] = narrowSentinel
			}
		}
		if got := f.copyBlock(b.i0, b.i1, b.j0, b.j1, b.k0, b.k1, bufs[0][off:off+n], true); got != n {
			t.Fatalf("%s: pack moved %d values, want %d", label, got, n)
		}
		f.copyRows(b.i0, b.i1, b.j0, b.j1, b.k0, b.k1, bufs[1][off:off+n], true)
		expectSameBits(t, label+" pack", bufs[0], bufs[1])
		for i, v := range bufs[0] {
			if (i < off || i >= off+n) && math.Float32bits(v) != math.Float32bits(narrowSentinel) {
				t.Fatalf("%s: pack wrote buf[%d] outside its section [%d,%d)", label, i, off, off+n)
			}
		}

		src := make([]float32, n)
		for i := range src {
			src[i] = -float32(i) - 0.25
		}
		var fields [2]*Field3
		for side := range fields {
			fields[side] = NewField3G(b.d, Ghost)
			fill(fields[side], narrowSentinel)
		}
		if got := fields[0].copyBlock(b.i0, b.i1, b.j0, b.j1, b.k0, b.k1, src, false); got != n {
			t.Fatalf("%s: unpack moved %d values, want %d", label, got, n)
		}
		fields[1].copyRows(b.i0, b.i1, b.j0, b.j1, b.k0, b.k1, src, false)
		expectSameBits(t, label+" unpack", fields[0].data, fields[1].data)
		inside := 0
		g := fields[0].g
		for k := -g; k < b.d.NZ+g; k++ {
			for j := -g; j < b.d.NY+g; j++ {
				for i := -g; i < b.d.NX+g; i++ {
					in := i >= b.i0 && i < b.i1 && j >= b.j0 && j < b.j1 && k >= b.k0 && k < b.k1
					v := fields[0].At(i, j, k)
					if in {
						inside++
					} else if math.Float32bits(v) != math.Float32bits(narrowSentinel) {
						t.Fatalf("%s: unpack wrote (%d,%d,%d) outside the block", label, i, j, k)
					}
				}
			}
		}
		if inside != n {
			t.Fatalf("%s: %d cells inside the block, want %d", label, inside, n)
		}
	}
}

// expectSameBits fails unless got and want hold the same bits.
func expectSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d = %#x, the per-row copies store %#x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}
