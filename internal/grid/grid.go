// Package grid provides the flat-backed 3D field arrays used by every
// solver component. Fields are stored in x-fastest order (the analogue of
// the original Fortran code's column-major layout) with a fixed-width ghost
// padding on all six faces so that 4th-order stencils can be applied at
// every interior point without bounds checks; a field no stencil reads is
// dense, with no padding at all.
package grid

import (
	"fmt"
	"math"
)

// Ghost is the ghost-cell padding width required by the 4th-order
// staggered-grid stencil (two cells on each side, §III.A of the paper).
const Ghost = 2

// Dims describes the interior extent of a 3D field.
type Dims struct {
	NX, NY, NZ int
}

// Cells returns the number of interior cells.
func (d Dims) Cells() int { return d.NX * d.NY * d.NZ }

// Valid reports whether all extents are positive.
func (d Dims) Valid() bool { return d.NX > 0 && d.NY > 0 && d.NZ > 0 }

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.NX, d.NY, d.NZ) }

// Field3 is a 3D scalar field of float32 with ghost padding (Ghost wide
// unless the caller chose deeper, or none for a dense field). Interior
// indices run i in [0,NX), j in [0,NY), k in [0,NZ); ghost indices extend
// to [-G(), N+G()). The backing slice is contiguous with x fastest, then
// y, then z.
type Field3 struct {
	Dims
	g          int // ghost width on every face
	sx, sy, sz int // padded extents
	data       []float32
}

// NewField3 allocates a zeroed field with the given interior dims and the
// default Ghost padding width.
func NewField3(d Dims) *Field3 { return NewField3G(d, Ghost) }

// NewField3G allocates a zeroed field with a caller-chosen ghost width: at
// least Ghost for a field a stencil reads, or 0 for a dense field read and
// written only at its own cells.
func NewField3G(d Dims, ghost int) *Field3 {
	return newField3Over(d, ghost, make([]float32, paddedLen(d, ghost)))
}

// newField3Over is a field on the first paddedLen(d, ghost) values of storage.
func newField3Over(d Dims, ghost int, storage []float32) *Field3 {
	n := paddedLen(d, ghost)
	return &Field3{
		Dims: d,
		g:    ghost,
		sx:   d.NX + 2*ghost, sy: d.NY + 2*ghost, sz: d.NZ + 2*ghost,
		data: storage[:n:n],
	}
}

// Placement. A row sweep streams the same flat offset of every array it
// reads — the nine wavefield components, the material coefficients, the
// memory variables, a PML zone's splits. The allocator starts every object
// larger than 32 KiB on a page boundary, and the L1 data cache picks a line's
// set from its address modulo 4 KiB (64 sets of 64-byte lines), so same-sized
// arrays allocated one make at a time put that offset of all of them in one
// set, and a sweep over more of them than the set has ways evicts its own
// lines. LaneFields places them instead: the arrays a rank streams together
// are numbered 0, 1, 2, … across their owners (the constants below are where
// each owner's numbers start), every one is stride cache lines long — its
// length rounded up to an odd number of lines — and array m starts m·stride
// lines past a 4 KiB boundary. An odd stride is a unit modulo 64, so the 64
// numbers land on 64 different lines of the period: no two arrays of one
// shape hold equal offsets in the same set.
const (
	cacheLine = 16 // float32 values per 64-byte cache line
	// Lanes is how many arrays can be placed apart: cache lines per set period.
	Lanes = 64

	LaneState       = 0  // fd.State: 9 components
	LaneMedium      = 9  // medium.Medium: 12 arrays
	LaneAttenuation = 21 // attenuation.Model: 6 memory variables, DLam, DMu
	LanePML         = 29 // boundary.PML: 24 splits of one zone
)

// LaneFields returns a constructor of count zeroed fields of one shape, the
// k-th numbered first+k (see Placement). They are cut from one allocation —
// the owner's lead-in of under 4 KiB, then the fields stride apart — so the
// placement costs an owner at most a page and a field at most two cache
// lines, and it holds whenever the allocator page-aligns the allocation; a
// smaller one fits the cache whole and has nothing to evict. Indices, strides
// and Data() of the fields are those of any other field.
func LaneFields(d Dims, ghost, first, count int) func() *Field3 {
	if first < 0 || count < 0 || first+count > Lanes {
		panic(fmt.Sprintf("grid: arrays %d..%d outside the %d lanes", first, first+count, Lanes))
	}
	stride := ((paddedLen(d, ghost)+cacheLine-1)/cacheLine | 1) * cacheLine
	lead := first * stride % (Lanes * cacheLine)
	slab := make([]float32, lead+count*stride)[lead:]
	return func() *Field3 {
		if len(slab) == 0 {
			panic(fmt.Sprintf("grid: more than the %d fields LaneFields was asked for", count))
		}
		f := newField3Over(d, ghost, slab)
		slab = slab[stride:]
		return f
	}
}

// paddedLen returns the length of the backing array of a field of interior
// dims d padded by ghost cells on every face. A ghost width between 0 and
// Ghost is a bug: a stencil field with too thin a frame reads past it.
func paddedLen(d Dims, ghost int) int {
	if !d.Valid() {
		panic(fmt.Sprintf("grid: invalid dims %v", d))
	}
	if ghost != 0 && ghost < Ghost {
		panic(fmt.Sprintf("grid: ghost width %d: a stencil needs at least %d, a field no stencil reads 0", ghost, Ghost))
	}
	return (d.NX + 2*ghost) * (d.NY + 2*ghost) * (d.NZ + 2*ghost)
}

// G returns the ghost width of the field.
func (f *Field3) G() int { return f.g }

// Idx returns the flat index of (i,j,k). Indices may range over the ghost
// region [-G(), N+G()).
func (f *Field3) Idx(i, j, k int) int {
	return ((k+f.g)*f.sy+(j+f.g))*f.sx + (i + f.g)
}

// At returns the value at (i,j,k).
func (f *Field3) At(i, j, k int) float32 { return f.data[f.Idx(i, j, k)] }

// Set stores v at (i,j,k).
func (f *Field3) Set(i, j, k int, v float32) { f.data[f.Idx(i, j, k)] = v }

// Add adds v to the value at (i,j,k).
func (f *Field3) Add(i, j, k int, v float32) { f.data[f.Idx(i, j, k)] += v }

// Data exposes the raw backing slice (including ghosts). Intended for
// kernels and checkpointing; the layout is x-fastest with G() padding.
func (f *Field3) Data() []float32 { return f.data }

// Strides returns the flat-index strides (dx, dy, dz) such that
// Idx(i+1,j,k) = Idx(i,j,k)+dx, etc.
func (f *Field3) Strides() (dx, dy, dz int) { return 1, f.sx, f.sx * f.sy }

// PaddedDims returns the padded extents of the backing array.
func (f *Field3) PaddedDims() (sx, sy, sz int) { return f.sx, f.sy, f.sz }

// Fill sets every element, ghosts included, to v.
func (f *Field3) Fill(v float32) {
	for i := range f.data {
		f.data[i] = v
	}
}

// Zero resets every element to zero.
func (f *Field3) Zero() { f.Fill(0) }

// CopyFrom copies the full padded contents of src, which must have
// identical dims and ghost width.
func (f *Field3) CopyFrom(src *Field3) {
	if f.Dims != src.Dims || f.g != src.g {
		panic(fmt.Sprintf("grid: CopyFrom mismatch %v/g%d != %v/g%d", f.Dims, f.g, src.Dims, src.g))
	}
	copy(f.data, src.data)
}

// Clone returns a deep copy of f, preserving its ghost width.
func (f *Field3) Clone() *Field3 {
	g := NewField3G(f.Dims, f.g)
	copy(g.data, f.data)
	return g
}

// Section is one named array of a rank's restart state, aliasing its owner's
// live values: F32 for float32 arrays, F64 (set, even when empty) for float64
// ones. A checkpoint is a rank's list of sections (internal/checkpoint).
type Section struct {
	Name string
	F32  []float32
	F64  []float64
}

// Axis identifies one of the three grid axes.
type Axis int

const (
	X Axis = iota
	Y
	Z
)

func (a Axis) String() string {
	switch a {
	case X:
		return "x"
	case Y:
		return "y"
	case Z:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Side identifies the low or high face along an axis.
type Side int

const (
	Low Side = iota
	High
)

func (s Side) String() string {
	if s == Low {
		return "low"
	}
	return "high"
}

// planeExtents computes the loop bounds of `count` planes of the interior
// adjacent to a face (for packing to send) or of the ghost region adjacent
// to a face (for unpacking after receive).
func (f *Field3) planeExtents(ax Axis, sd Side, count int, ghost bool) (i0, i1, j0, j1, k0, k1 int) {
	i0, i1 = 0, f.NX
	j0, j1 = 0, f.NY
	k0, k1 = 0, f.NZ
	set := func(lo, hi *int, n int) {
		if sd == Low {
			if ghost {
				*lo, *hi = -count, 0
			} else {
				*lo, *hi = 0, count
			}
		} else {
			if ghost {
				*lo, *hi = n, n+count
			} else {
				*lo, *hi = n-count, n
			}
		}
	}
	switch ax {
	case X:
		set(&i0, &i1, f.NX)
	case Y:
		set(&j0, &j1, f.NY)
	case Z:
		set(&k0, &k1, f.NZ)
	}
	return
}

// FaceLen returns the number of values in `count` planes of the face
// perpendicular to ax.
func (f *Field3) FaceLen(ax Axis, count int) int {
	switch ax {
	case X:
		return count * f.NY * f.NZ
	case Y:
		return f.NX * count * f.NZ
	default:
		return f.NX * f.NY * count
	}
}

// PackFace copies `count` interior planes adjacent to the (ax, sd) face
// into dst and returns the number of values written. dst must have
// capacity FaceLen(ax, count).
func (f *Field3) PackFace(ax Axis, sd Side, count int, dst []float32) int {
	i0, i1, j0, j1, k0, k1 := f.planeExtents(ax, sd, count, false)
	return f.copyBlock(i0, i1, j0, j1, k0, k1, dst, true)
}

// UnpackFace copies src into `count` ghost planes adjacent to the (ax, sd)
// face and returns the number of values consumed.
func (f *Field3) UnpackFace(ax Axis, sd Side, count int, src []float32) int {
	i0, i1, j0, j1, k0, k1 := f.planeExtents(ax, sd, count, true)
	return f.copyBlock(i0, i1, j0, j1, k0, k1, src, false)
}

// RangeLen returns the number of values in the block
// [i0,i1)x[j0,j1)x[k0,k1).
func RangeLen(i0, i1, j0, j1, k0, k1 int) int {
	return (i1 - i0) * (j1 - j0) * (k1 - k0)
}

// PackRange copies the block [i0,i1)x[j0,j1)x[k0,k1) — which may extend
// into the ghost region — into dst in x-fastest order and returns the
// number of values written. It is the pack primitive of the halo schedule:
// several sections share one message buffer as disjoint sub-slices, so
// they pack concurrently.
func (f *Field3) PackRange(i0, i1, j0, j1, k0, k1 int, dst []float32) int {
	return f.copyBlock(i0, i1, j0, j1, k0, k1, dst, true)
}

// UnpackRange copies src (x-fastest order) into the block
// [i0,i1)x[j0,j1)x[k0,k1), which may extend into the ghost region, and
// returns the number of values consumed.
func (f *Field3) UnpackRange(i0, i1, j0, j1, k0, k1 int, src []float32) int {
	return f.copyBlock(i0, i1, j0, j1, k0, k1, src, false)
}

// copyBlock copies the block [i0,i1)x[j0,j1)x[k0,k1) to buf (pack=true)
// or from buf (pack=false), returning the element count: a copy call a
// row, or for rows of at most narrowRow values copyNarrow's stores.
func (f *Field3) copyBlock(i0, i1, j0, j1, k0, k1 int, buf []float32, pack bool) int {
	if i1-i0 <= narrowRow {
		return f.copyNarrow(i0, i1, j0, j1, k0, k1, buf, pack)
	}
	return f.copyRows(i0, i1, j0, j1, k0, k1, buf, pack)
}

// copyRows is copyBlock with one copy call a row.
func (f *Field3) copyRows(i0, i1, j0, j1, k0, k1 int, buf []float32, pack bool) int {
	n := 0
	w := i1 - i0
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			base := f.Idx(i0, j, k)
			row := f.data[base : base+w]
			if pack {
				copy(buf[n:n+w], row)
			} else {
				copy(row, buf[n:n+w])
			}
			n += w
		}
	}
	return n
}

// ExtractBlock copies the interior block [i0,i1)x[j0,j1)x[k0,k1) into a
// newly allocated slice in x-fastest order.
func (f *Field3) ExtractBlock(i0, i1, j0, j1, k0, k1 int) []float32 {
	out := make([]float32, (i1-i0)*(j1-j0)*(k1-k0))
	f.copyBlock(i0, i1, j0, j1, k0, k1, out, true)
	return out
}

// InsertBlock copies src (x-fastest order) into the block
// [i0,i1)x[j0,j1)x[k0,k1).
func (f *Field3) InsertBlock(i0, i1, j0, j1, k0, k1 int, src []float32) {
	f.copyBlock(i0, i1, j0, j1, k0, k1, src, false)
}

// MaxAbs returns the maximum absolute interior value.
func (f *Field3) MaxAbs() float32 {
	var m float32
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			base := f.Idx(0, j, k)
			for _, v := range f.data[base : base+f.NX] {
				if v < 0 {
					v = -v
				}
				if v > m {
					m = v
				}
			}
		}
	}
	return m
}

// SumSq returns the sum of squares of the interior values in float64.
func (f *Field3) SumSq() float64 {
	var s float64
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			base := f.Idx(0, j, k)
			for _, v := range f.data[base : base+f.NX] {
				s += float64(v) * float64(v)
			}
		}
	}
	return s
}

// L2Diff returns the root-sum-square difference between the interiors of
// f and g, which must have identical dims.
func (f *Field3) L2Diff(g *Field3) float64 {
	if f.Dims != g.Dims {
		panic(fmt.Sprintf("grid: L2Diff dims mismatch %v != %v", f.Dims, g.Dims))
	}
	var s float64
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			a := f.Idx(0, j, k)
			b := g.Idx(0, j, k)
			for i := 0; i < f.NX; i++ {
				d := float64(f.data[a+i]) - float64(g.data[b+i])
				s += d * d
			}
		}
	}
	return math.Sqrt(s)
}
