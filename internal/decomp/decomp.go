// Package decomp implements the 3D domain decomposition AWP-ODC uses to
// split the global finite-difference grid across ranks (§III.A). Each rank
// owns a rectangular subgrid; the decomposition records local extents,
// global offsets, and which subgrid faces touch the physical domain
// boundary (those ranks also own absorbing-boundary work).
package decomp

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// Decomp describes the split of a global grid over a Cartesian topology.
type Decomp struct {
	Global grid.Dims
	Topo   mpi.Cart
}

// New validates the decomposition. Every rank must receive at least four
// cells per decomposed axis so the 4th-order stencil's two-cell halo never
// spans more than one neighbor.
func New(global grid.Dims, topo mpi.Cart) (Decomp, error) {
	if !global.Valid() {
		return Decomp{}, fmt.Errorf("decomp: invalid global dims %v", global)
	}
	d := Decomp{Global: global, Topo: topo}
	for axis, pair := range [3][2]int{{global.NX, topo.PX}, {global.NY, topo.PY}, {global.NZ, topo.PZ}} {
		n, p := pair[0], pair[1]
		if p > n {
			return Decomp{}, fmt.Errorf("decomp: axis %d has %d ranks for %d cells", axis, p, n)
		}
		if p > 1 && n/p < grid.Ghost*2 {
			return Decomp{}, fmt.Errorf("decomp: axis %d subgrid too thin (%d cells / %d ranks < %d)",
				axis, n, p, grid.Ghost*2)
		}
	}
	return d, nil
}

// Sub describes one rank's subgrid.
type Sub struct {
	Rank  int
	Local grid.Dims // local interior extent
	// Off is the global index of the local (0,0,0) cell.
	OffX, OffY, OffZ int
}

// split1 computes the size and offset of part c out of p along an axis of
// n cells, distributing the remainder to the leading parts (the same
// balanced block distribution the original code uses).
func split1(n, p, c int) (size, off int) {
	base := n / p
	rem := n % p
	if c < rem {
		return base + 1, c * (base + 1)
	}
	return base, rem*(base+1) + (c-rem)*base
}

// SubFor returns the subgrid owned by rank.
func (d Decomp) SubFor(rank int) Sub {
	cx, cy, cz := d.Topo.Coords(rank)
	nx, ox := split1(d.Global.NX, d.Topo.PX, cx)
	ny, oy := split1(d.Global.NY, d.Topo.PY, cy)
	nz, oz := split1(d.Global.NZ, d.Topo.PZ, cz)
	return Sub{
		Rank:  rank,
		Local: grid.Dims{NX: nx, NY: ny, NZ: nz},
		OffX:  ox, OffY: oy, OffZ: oz,
	}
}

// Contains reports whether the subgrid owns global cell (gi,gj,gk) and, if
// so, its local coordinates.
func (s Sub) Contains(gi, gj, gk int) (li, lj, lk int, ok bool) {
	li, lj, lk = gi-s.OffX, gj-s.OffY, gk-s.OffZ
	ok = li >= 0 && li < s.Local.NX && lj >= 0 && lj < s.Local.NY && lk >= 0 && lk < s.Local.NZ
	return
}

// BoundaryFaces returns, for each axis/side, whether this subgrid touches
// the physical domain boundary.
func (d Decomp) BoundaryFaces(rank int) map[grid.Axis][2]bool {
	out := make(map[grid.Axis][2]bool, 3)
	for axis := 0; axis < 3; axis++ {
		lo := d.Topo.OnBoundary(rank, axis, -1)
		hi := d.Topo.OnBoundary(rank, axis, +1)
		out[grid.Axis(axis)] = [2]bool{lo, hi}
	}
	return out
}

// TopoCost prices one factorisation of the ranks over a global grid; lower
// is better. It is a deterministic function of its arguments, computed in
// integers, so a seeded run picks the same topology on every host and
// architecture.
type TopoCost func(global grid.Dims, topo mpi.Cart) int64

// BestTopo picks the PX×PY×PZ factorization of nranks that cost prices
// lowest, among those that leave every rank at least minCells cells per
// axis; pinY admits only PY = 1 (dynamic rupture keeps the fault plane on
// one rank in y). A tie goes to the first candidate in (PX, PY) order. It
// reports an error when no factorization fits.
func BestTopo(global grid.Dims, nranks, minCells int, pinY bool, cost TopoCost) (mpi.Cart, error) {
	var best mpi.Cart
	bestCost := int64(-1)
	for px := 1; px <= nranks; px++ {
		if nranks%px != 0 {
			continue
		}
		rem := nranks / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 || (pinY && py != 1) {
				continue
			}
			pz := rem / py
			if px*minCells > global.NX || py*minCells > global.NY || pz*minCells > global.NZ {
				continue
			}
			topo := mpi.Cart{PX: px, PY: py, PZ: pz}
			if c := cost(global, topo); bestCost < 0 || c < bestCost {
				bestCost, best = c, topo
			}
		}
	}
	if bestCost < 0 {
		return best, fmt.Errorf("decomp: no topology of %d ranks leaves each rank %d cells per axis of the %v grid", nranks, minCells, global)
	}
	return best, nil
}

// CutArea is the total communication volume of topo: over the three axes,
// the cuts along the axis times the cut-plane area. It is the objective of
// the paper-scale projections in perfmodel, which keep the paper's
// near-cubic decompositions.
func CutArea(global grid.Dims, topo mpi.Cart) int64 {
	nx, ny, nz := int64(global.NX), int64(global.NY), int64(global.NZ)
	return int64(topo.PX-1)*ny*nz + int64(topo.PY-1)*nx*nz + int64(topo.PZ-1)*nx*ny
}

// StepCost's constants: nanoseconds of one step of one rank on the 2-core
// AVX2 reference host, fitted by least squares to the solve times of all
// ten 8-rank topologies of a 56×56×40 sponge scenario (EXPERIMENTS.md,
// "Cut where the rows stay long"). They are fixed here, never probed at run
// time, so the topology of a seeded run does not depend on its host.
const (
	laneWidth   = 8   // cells in one chunk of the 8-lane row walkers
	chunkNs     = 110 // every sweep of a step over one chunk of a row
	rowNs       = 88  // a row's fixed cost: set-up and the masked tail
	faceCellNs  = 8   // packing, shipping and unpacking one cell of a face
	narrowRowNs = 24  // an x face's rows are two values wide: a copy each
)

// StepCost predicts one step of topo's slowest rank, in nanoseconds on the
// reference host, as the paper's Eq. 7 does term by term (Tcomp + Tcomm;
// the rank's Tsync is its neighbours' skew, which the model leaves out).
// Compute is the rank's rows (ny·nz) times their chunks of laneWidth cells
// plus a fixed cost a row: an x cut shortens every row, so its walkers
// fill fewer lanes and take more row steps. Comm is the cells of each face
// the rank exchanges (Eq. 8's per-face volumes, two on an axis cut into
// three or more), plus a copy a row on the x faces, whose rows are narrow.
func StepCost(global grid.Dims, topo mpi.Cart) int64 {
	nx, ny, nz := part(global.NX, topo.PX), part(global.NY, topo.PY), part(global.NZ, topo.PZ)
	fx, fy, fz := faces(topo.PX), faces(topo.PY), faces(topo.PZ)
	comp := ny * nz * ((nx+laneWidth-1)/laneWidth*chunkNs + rowNs)
	comm := faceCellNs*(fx*ny*nz+fy*nx*nz+fz*nx*ny) + narrowRowNs*fx*ny*nz
	return comp + comm
}

// part is the largest of p parts of n cells (split1 gives the remainder to
// the leading parts).
func part(n, p int) int64 { return int64((n + p - 1) / p) }

// faces is how many faces the rank with the most neighbours exchanges along
// an axis cut into p parts.
func faces(p int) int64 { return int64(min(p-1, 2)) }
