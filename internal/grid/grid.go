// Package grid provides the flat-backed 3D field arrays used by every
// solver component. Fields are stored in x-fastest order (the analogue of
// the original Fortran code's column-major layout) with a fixed-width ghost
// padding on all six faces so that 4th-order stencils can be applied at
// every interior point without bounds checks; a field no stencil reads is
// dense, with no padding at all.
package grid

import "fmt"

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
// to [-g, N+g) for ghost width g. The backing slice is contiguous with x
// fastest, then y, then z.
type Field3 struct {
	Dims
	g      int // ghost width on every face
	sx, sy int // padded x and y extents
	data   []float32
}

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
		sx:   d.NX + 2*ghost, sy: d.NY + 2*ghost,
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
// shape hold equal offsets in the same set. A rank's arrays come in two
// shapes — padded (the wavefield, Rho, Mu) and dense on its own cells (the
// coefficients and memory variables) — whose offsets of one cell differ, so
// each shape is spread among itself and a set holds at most one line of each.
const (
	cacheLine = 16 // float32 values per 64-byte cache line
	// Lanes is how many arrays can be placed apart: cache lines per set period.
	Lanes = 64

	LaneState        = 0  // fd.State: 9 components, padded
	LaneMedium       = 9  // medium.Medium: Rho, Mu, padded
	LaneCoefficients = 11 // medium.Medium: Lam, BX, BY, BZ, MuXY, MuXZ, MuYZ, Lam2Mu, dense
	LaneAttenuation  = 19 // attenuation.Model: 6 memory variables, DLam, DMu, dense
	LanePML          = 27 // boundary.PML: 24 splits of one zone, dense on the zone
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

// Idx returns the flat index of (i,j,k). Indices may range over the ghost
// region [-g, N+g) of ghost width g.
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
// kernels and checkpointing; the layout is x-fastest with the ghost padding.
func (f *Field3) Data() []float32 { return f.data }

// Strides returns the flat-index strides (dx, dy, dz) such that
// Idx(i+1,j,k) = Idx(i,j,k)+dx, etc.
func (f *Field3) Strides() (dx, dy, dz int) { return 1, f.sx, f.sx * f.sy }

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
