package grid

import "testing"

// enumerate walks a block in copyBlock order (x rows, then y, then z) and
// yields each cell coordinate. Pack and unpack traverse their respective
// extents in this same order, which defines the wire correspondence.
func enumerate(i0, i1, j0, j1, k0, k1 int, fn func(i, j, k int)) {
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			for i := i0; i < i1; i++ {
				fn(i, j, k)
			}
		}
	}
}

// FuzzPackUnpackSection drives the sectioned pack/unpack pair the halo
// schedule uses: pack `count` interior planes of a face into a sub-slice
// at an arbitrary offset of a shared buffer, unpack them into a second
// field's ghost region, and verify both sides touched exactly the cells
// they own. A nonzero rw%5 narrows both blocks to rows of rw%5 values, each
// anywhere across the padded x extent (ghosts included): copyBlock's narrow
// rows on every face.
func FuzzPackUnpackSection(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), uint8(0), uint8(0), uint8(1), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), uint16(7), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(8), uint8(2), uint8(3), uint8(2), uint8(0), uint8(2), uint16(31), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(4), uint8(4), uint8(0), uint8(1), uint8(2), uint16(13), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(7), uint8(1), uint8(1), uint8(0), uint8(1), uint16(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(3), uint8(2), uint8(1), uint8(1), uint8(1), uint16(5), uint8(1), uint8(9), uint8(0))
	f.Add(uint8(7), uint8(2), uint8(4), uint8(2), uint8(0), uint8(2), uint16(2), uint8(2), uint8(0), uint8(3))
	f.Add(uint8(3), uint8(5), uint8(3), uint8(0), uint8(1), uint8(1), uint16(9), uint8(3), uint8(4), uint8(1))
	f.Add(uint8(5), uint8(1), uint8(6), uint8(2), uint8(1), uint8(2), uint16(0), uint8(4), uint8(2), uint8(7))
	f.Fuzz(func(t *testing.T, rnx, rny, rnz, rax, rsd, rcount uint8, roff uint16, rw, rpi, rui uint8) {
		d := Dims{NX: int(rnx%8) + 1, NY: int(rny%8) + 1, NZ: int(rnz%8) + 1}
		ax := Axis(rax % 3)
		sd := Side(rsd % 2)
		count := int(rcount%Ghost) + 1
		off := int(roff % 32)

		src := NewField3(d)
		for n := range src.data {
			src.data[n] = float32(n) + 0.5
		}
		i0, i1, j0, j1, k0, k1 := faceBlock(d, ax, sd, count, false)
		g0, g1, h0, h1, l0, l1 := faceBlock(d, ax, sd, count, true)
		faceLen := RangeLen(i0, i1, j0, j1, k0, k1)
		if w, sx := int(rw%5), d.NX+2*Ghost; w > 0 && w <= sx {
			i0 = int(rpi)%(sx-w+1) - Ghost
			g0 = int(rui)%(sx-w+1) - Ghost
			i1, g1 = i0+w, g0+w
			faceLen = RangeLen(i0, i1, j0, j1, k0, k1)
		}
		const sentinel = float32(-1e30)
		buf := make([]float32, off+faceLen+8)
		for n := range buf {
			buf[n] = sentinel
		}

		if n := src.PackRange(i0, i1, j0, j1, k0, k1, buf[off:off+faceLen]); n != faceLen {
			t.Fatalf("pack wrote %d values, want %d", n, faceLen)
		}
		for n := 0; n < off; n++ {
			if buf[n] != sentinel {
				t.Fatalf("pack dirtied buf[%d] before section start %d", n, off)
			}
		}
		for n := off + faceLen; n < len(buf); n++ {
			if buf[n] != sentinel {
				t.Fatalf("pack dirtied buf[%d] past section end %d", n, off+faceLen)
			}
		}
		pos := off
		enumerate(i0, i1, j0, j1, k0, k1, func(i, j, k int) {
			if buf[pos] != src.At(i, j, k) {
				t.Fatalf("buf[%d] = %g, want interior (%d,%d,%d) = %g",
					pos, buf[pos], i, j, k, src.At(i, j, k))
			}
			pos++
		})
		if pos != off+faceLen {
			t.Fatalf("pack extents cover %d cells, want %d", pos-off, faceLen)
		}

		dst := NewField3(d)
		for n := range dst.data {
			dst.data[n] = float32(n) - 0.25
		}
		before := append([]float32(nil), dst.data...)
		if n := dst.UnpackRange(g0, g1, h0, h1, l0, l1, buf[off:off+faceLen]); n != faceLen {
			t.Fatalf("unpack consumed %d values, want %d", n, faceLen)
		}
		pos = off
		touched := make(map[int]bool, faceLen)
		enumerate(g0, g1, h0, h1, l0, l1, func(i, j, k int) {
			if dst.At(i, j, k) != buf[pos] {
				t.Fatalf("ghost (%d,%d,%d) = %g, want buf[%d] = %g",
					i, j, k, dst.At(i, j, k), pos, buf[pos])
			}
			touched[dst.Idx(i, j, k)] = true
			pos++
		})
		if len(touched) != faceLen {
			t.Fatalf("ghost extents cover %d distinct cells, want %d", len(touched), faceLen)
		}
		for n := range dst.data {
			if !touched[n] && dst.data[n] != before[n] {
				t.Fatalf("unpack dirtied cell at flat index %d outside the ghost section", n)
			}
		}
	})
}
