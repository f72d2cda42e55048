package grid

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDims(t *testing.T) {
	d := Dims{3, 4, 5}
	if got := d.Cells(); got != 60 {
		t.Fatalf("Cells = %d, want 60", got)
	}
	if !d.Valid() {
		t.Fatal("Valid = false for positive dims")
	}
	for _, bad := range []Dims{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if bad.Valid() {
			t.Errorf("Valid(%v) = true, want false", bad)
		}
	}
	if d.String() != "3x4x5" {
		t.Errorf("String = %q", d.String())
	}
}

func TestNewField3PanicsOnInvalidDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid dims")
		}
	}()
	NewField3G(Dims{0, 1, 1}, Ghost)
}

// A field no stencil reads is dense: ghost 0 holds the interior cells and
// nothing more, with Idx, Strides and At agreeing on them. Any other width
// below Ghost is a stencil field with too thin a frame, and panics.
func TestGhostWidths(t *testing.T) {
	d := Dims{5, 4, 3}
	f := NewField3G(d, 0)
	if f.g != 0 || len(f.Data()) != d.Cells() {
		t.Fatalf("ghost 0: G %d, %d values, want 0 and %d", f.g, len(f.Data()), d.Cells())
	}
	if dx, dy, dz := f.Strides(); dx != 1 || dy != d.NX || dz != d.NX*d.NY {
		t.Fatalf("ghost 0: strides %d,%d,%d, want those of %v", dx, dy, dz, d)
	}
	for n := range f.Data() {
		f.Data()[n] = float32(n)
	}
	dx, dy, dz := f.Strides()
	n := 0
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				if f.Idx(i, j, k) != n || i*dx+j*dy+k*dz != n || f.At(i, j, k) != float32(n) {
					t.Fatalf("ghost 0: (%d,%d,%d) at Idx %d, strides %d, holds %g; want flat index %d",
						i, j, k, f.Idx(i, j, k), i*dx+j*dy+k*dz, f.At(i, j, k), n)
				}
				n++
			}
		}
	}
	for _, g := range []int{1, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("ghost width %d", g)) {
					t.Errorf("ghost %d: panic %q, want one naming the width", g, msg)
				}
			}()
			NewField3G(d, g)
		}()
	}
}

// LaneFields moves where its fields' storage starts and nothing else: the
// fields have the length, indices and contents of any other, no spare
// capacity an append could grow into, and no storage in common; dense fields
// (ghost 0) as well as padded ones.
func TestLaneFieldsAreOrdinaryFields(t *testing.T) {
	d := Dims{5, 4, 3}
	const count = 3
	var next func() *Field3
	for _, ghost := range []int{3, 0} {
		next = LaneFields(d, ghost, Lanes-count, count)
		for k := 0; k < count; k++ {
			f := next()
			if f.g != ghost || f.Dims != d {
				t.Fatalf("ghost %d field %d: ghost %d dims %v", ghost, k, f.g, f.Dims)
			}
			if n := paddedLen(d, ghost); len(f.Data()) != n || cap(f.Data()) != n {
				t.Fatalf("ghost %d field %d: len %d cap %d, want %d", ghost, k, len(f.Data()), cap(f.Data()), n)
			}
			for _, v := range f.Data() {
				if v != 0 {
					t.Fatalf("ghost %d field %d: not zeroed, or it shares storage with an earlier field", ghost, k)
				}
			}
			fill(f, float32(k+1))
			f.Set(-ghost, -ghost, -ghost, -1)
			f.Set(d.NX+ghost-1, d.NY+ghost-1, d.NZ+ghost-1, -2)
			if f.Data()[0] != -1 || f.Data()[len(f.Data())-1] != -2 {
				t.Fatalf("ghost %d field %d: the corners of the padded box are not the ends of Data()", ghost, k)
			}
		}
	}
	for _, bad := range []func(){
		func() { next() }, // a fourth field of three
		func() { LaneFields(d, 3, Lanes-count+1, count) }, // past the last lane
		func() { LaneFields(d, 3, -1, count) },
		func() { LaneFields(d, 1, 0, count) }, // a stencil field's frame too thin
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

// LaneFields places field m of a shape stride·m cache lines past a 4 KiB
// boundary, stride odd — dense or padded: the M-PML zones' splits (ghost 0,
// numbered from LanePML) land on distinct lines of the L1 set period as the
// padded wavefield does. The shapes are larger than 32 KiB a field, so the
// allocator page-aligns the allocation the fields are cut from.
func TestLaneFieldsPlacement(t *testing.T) {
	for _, c := range []struct {
		d            Dims
		ghost, first int
		count        int
	}{
		{Dims{NX: 10, NY: 28, NZ: 20}, 0, LanePML, 24},
		{Dims{NX: 48, NY: 10, NZ: 24}, 0, LanePML, 24},
		{Dims{NX: 28, NY: 28, NZ: 20}, Ghost, LaneState, 9},
	} {
		strideLines := (paddedLen(c.d, c.ghost)+cacheLine-1)/cacheLine | 1
		next := LaneFields(c.d, c.ghost, c.first, c.count)
		seen := map[int]bool{}
		for k := 0; k < c.count; k++ {
			addr := uintptr(unsafe.Pointer(&next().Data()[0]))
			line := int(addr % 4096 / 64)
			if want := (c.first + k) * strideLines % Lanes; addr%64 != 0 || line != want {
				t.Errorf("%v ghost %d field %d: starts %d bytes into line %d, want the start of line %d", c.d, c.ghost, k, addr%64, line, want)
			}
			if seen[line] {
				t.Errorf("%v ghost %d field %d: line %d taken", c.d, c.ghost, k, line)
			}
			seen[line] = true
		}
	}
}

func TestIdxStrides(t *testing.T) {
	f := NewField3G(Dims{4, 5, 6}, Ghost)
	dx, dy, dz := f.Strides()
	base := f.Idx(1, 2, 3)
	if f.Idx(2, 2, 3)-base != dx {
		t.Errorf("x stride mismatch")
	}
	if f.Idx(1, 3, 3)-base != dy {
		t.Errorf("y stride mismatch")
	}
	if f.Idx(1, 2, 4)-base != dz {
		t.Errorf("z stride mismatch")
	}
	sx, sy, sz := 4+2*Ghost, 5+2*Ghost, 6+2*Ghost
	if dy != sx || dz != sx*sy {
		t.Errorf("strides %d,%d, want %d,%d", dy, dz, sx, sx*sy)
	}
	if len(f.Data()) != sx*sy*sz {
		t.Errorf("backing size = %d, want %d", len(f.Data()), sx*sy*sz)
	}
}

func TestIdxUniqueIncludingGhosts(t *testing.T) {
	f := NewField3G(Dims{3, 4, 2}, Ghost)
	seen := make(map[int]bool)
	for k := -Ghost; k < f.NZ+Ghost; k++ {
		for j := -Ghost; j < f.NY+Ghost; j++ {
			for i := -Ghost; i < f.NX+Ghost; i++ {
				idx := f.Idx(i, j, k)
				if idx < 0 || idx >= len(f.Data()) {
					t.Fatalf("Idx(%d,%d,%d)=%d out of range", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("Idx(%d,%d,%d)=%d duplicated", i, j, k, idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != len(f.Data()) {
		t.Fatalf("covered %d of %d slots", len(seen), len(f.Data()))
	}
}

func TestSetAtAdd(t *testing.T) {
	f := NewField3G(Dims{3, 3, 3}, Ghost)
	f.Set(1, 2, 0, 2.5)
	if got := f.At(1, 2, 0); got != 2.5 {
		t.Fatalf("At = %v", got)
	}
	f.Add(1, 2, 0, 0.5)
	if got := f.At(1, 2, 0); got != 3.0 {
		t.Fatalf("after Add, At = %v", got)
	}
	// Ghost cells are addressable.
	f.Set(-1, -2, 4, 7)
	if got := f.At(-1, -2, 4); got != 7 {
		t.Fatalf("ghost At = %v", got)
	}
}

// fill sets every element of f, ghosts included, to v.
func fill(f *Field3, v float32) {
	for i := range f.data {
		f.data[i] = v
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	f := NewField3G(Dims{2, 2, 2}, Ghost)
	g := NewField3G(Dims{2, 2, 3}, Ghost)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dims mismatch")
		}
	}()
	f.CopyFrom(g)
}

// fillPattern assigns a unique deterministic value to every interior and
// ghost location.
func fillPattern(f *Field3) {
	for k := -Ghost; k < f.NZ+Ghost; k++ {
		for j := -Ghost; j < f.NY+Ghost; j++ {
			for i := -Ghost; i < f.NX+Ghost; i++ {
				f.Set(i, j, k, float32(f.Idx(i, j, k)))
			}
		}
	}
}

// faceBlock returns the block of `count` planes at the (ax, sd) face of a
// field of dims d: the interior planes a neighbor exchange packs, or
// (ghost) the ghost planes it unpacks into.
func faceBlock(d Dims, ax Axis, sd Side, count int, ghost bool) (i0, i1, j0, j1, k0, k1 int) {
	b := [6]int{0, d.NX, 0, d.NY, 0, d.NZ}
	lo, n := 0, b[2*ax+1]
	switch {
	case sd == Low && ghost:
		lo = -count
	case sd == High && ghost:
		lo = n
	case sd == High:
		lo = n - count
	}
	b[2*ax], b[2*ax+1] = lo, lo+count
	return b[0], b[1], b[2], b[3], b[4], b[5]
}

func TestPackUnpackFaceRoundTrip(t *testing.T) {
	// The pack/unpack pair is the heart of halo exchange: packing `count`
	// interior planes on one side and unpacking them into the ghost planes
	// of a neighbor must move exactly the right values.
	src := NewField3G(Dims{4, 5, 6}, Ghost)
	fillPattern(src)
	for _, ax := range []Axis{X, Y, Z} {
		for _, sd := range []Side{Low, High} {
			for count := 1; count <= Ghost; count++ {
				dst := NewField3G(src.Dims, Ghost)
				i0, i1, j0, j1, k0, k1 := faceBlock(src.Dims, ax, sd, count, false)
				buf := make([]float32, RangeLen(i0, i1, j0, j1, k0, k1))
				n := src.PackRange(i0, i1, j0, j1, k0, k1, buf)
				if n != len(buf) {
					t.Fatalf("%v/%v: packed %d, want %d", ax, sd, n, len(buf))
				}
				// Unpack into the *opposite* side's ghosts, as a real
				// exchange would.
				opp := High
				if sd == High {
					opp = Low
				}
				g0, g1, h0, h1, l0, l1 := faceBlock(src.Dims, ax, opp, count, true)
				m := dst.UnpackRange(g0, g1, h0, h1, l0, l1, buf)
				if m != len(buf) {
					t.Fatalf("%v/%v: unpacked %d, want %d", ax, sd, m, len(buf))
				}
				// Verify a representative value: ghost plane of dst equals
				// interior plane of src.
				checkFaceMatch(t, src, dst, ax, sd, count)
			}
		}
	}
}

func checkFaceMatch(t *testing.T, src, dst *Field3, ax Axis, sd Side, count int) {
	t.Helper()
	n := dims(src, ax)
	for c := 0; c < count; c++ {
		// Packed plane c on side sd of src corresponds to ghost plane c on
		// the opposite side of dst (as in a real neighbor exchange).
		var sp, dp int
		if sd == Low {
			sp = c     // low interior planes [0,count)
			dp = n + c // high ghost planes [n,n+count)
		} else {
			sp = n - count + c // high interior planes [n-count,n)
			dp = -count + c    // low ghost planes [-count,0)
		}
		at := func(f *Field3, p int) float32 {
			switch ax {
			case X:
				return f.At(p, 1, 1)
			case Y:
				return f.At(1, p, 1)
			default:
				return f.At(1, 1, p)
			}
		}
		if got, want := at(dst, dp), at(src, sp); got != want {
			t.Fatalf("%v/%v plane %d: ghost=%v, want interior=%v", ax, sd, c, got, want)
		}
	}
}

func dims(f *Field3, ax Axis) int {
	switch ax {
	case X:
		return f.NX
	case Y:
		return f.NY
	default:
		return f.NZ
	}
}

func TestMaxAbsIgnoresGhosts(t *testing.T) {
	f := NewField3G(Dims{3, 3, 3}, Ghost)
	f.Set(-1, 0, 0, 100) // ghost
	f.Set(1, 1, 1, -5)
	if got := f.MaxAbs(); got != 5 {
		t.Fatalf("MaxAbs = %v, want 5 (ghosts excluded)", got)
	}
}

func TestL2DiffMismatchPanics(t *testing.T) {
	f := NewField3G(Dims{2, 2, 2}, Ghost)
	g := NewField3G(Dims{3, 2, 2}, Ghost)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.L2Diff(g)
}

// Property: packing a face and unpacking it into the matching ghost region
// of a copy reproduces exactly the packed values for random dims.
func TestQuickPackUnpackConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64, nx8, ny8, nz8 uint8, axv uint8, sdv bool, cnt8 uint8) bool {
		nx := int(nx8%6) + 1
		ny := int(ny8%6) + 1
		nz := int(nz8%6) + 1
		ax := Axis(axv % 3)
		sd := Low
		if sdv {
			sd = High
		}
		count := int(cnt8%Ghost) + 1
		f := NewField3G(Dims{nx, ny, nz}, Ghost)
		rng := rand.New(rand.NewSource(seed))
		for idx := range f.Data() {
			f.Data()[idx] = rng.Float32()
		}
		i0, i1, j0, j1, k0, k1 := faceBlock(f.Dims, ax, sd, count, false)
		buf := make([]float32, RangeLen(i0, i1, j0, j1, k0, k1))
		if n := f.PackRange(i0, i1, j0, j1, k0, k1, buf); n != len(buf) {
			return false
		}
		g := NewField3G(f.Dims, Ghost)
		i0, i1, j0, j1, k0, k1 = faceBlock(f.Dims, ax, sd, count, true)
		if n := g.UnpackRange(i0, i1, j0, j1, k0, k1, buf); n != len(buf) {
			return false
		}
		buf2 := make([]float32, len(buf))
		// Re-extract from the ghost region of g: it must equal buf.
		g.copyBlock(i0, i1, j0, j1, k0, k1, buf2, true)
		for idx := range buf {
			if buf[idx] != buf2[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFaceLen(t *testing.T) {
	d := Dims{3, 4, 5}
	if got := RangeLen(faceBlock(d, X, Low, 2, false)); got != 2*4*5 {
		t.Errorf("x face, 2 planes: %d values", got)
	}
	if got := RangeLen(faceBlock(d, Y, High, 1, true)); got != 3*1*5 {
		t.Errorf("y face, 1 plane: %d values", got)
	}
	if got := RangeLen(faceBlock(d, Z, High, 2, false)); got != 3*4*2 {
		t.Errorf("z face, 2 planes: %d values", got)
	}
}

func TestAxisSideStrings(t *testing.T) {
	if X.String() != "x" || Y.String() != "y" || Z.String() != "z" {
		t.Error("axis strings wrong")
	}
	if Axis(9).String() == "" {
		t.Error("unknown axis string empty")
	}
	if Low.String() != "low" || High.String() != "high" {
		t.Error("side strings wrong")
	}
}
