package fd

import (
	"fmt"

	"repro/internal/medium"
)

// Variant selects a kernel implementation. There is one production pair —
// Blocked — and a two-rung ablation of how it got there (§IV.B), which
// tests, benchmarks and the acceptance harness reach through UpdateVelocity
// and UpdateStress; the solver runs Production unless a test or benchmark
// hands it another rung.
type Variant int

const (
	// Default, the zero value, asks for the production kernel: the solver's
	// Prepare resolves it to Production, so an Options literal that leaves
	// Variant out runs what every other caller runs. The kernels themselves
	// take resolved variants only.
	Default Variant = iota
	// Naive computes staggered material averages inline with one division
	// per operand (the pre-2009 code).
	Naive
	// Precomp reads fully precomputed staggered coefficient arrays, one
	// point at a time over the whole box with whole-array indexing. It is
	// the reference the tests hold the production pair to, bit for bit.
	Precomp
	// Blocked is the production pair: Precomp's arithmetic as a windowed,
	// bounds-check-free row sweep (rows.go), run per jblock x kblock panel
	// (§IV.B cache blocking).
	Blocked
)

// Production is the kernel Default resolves to.
const Production = Blocked

func (v Variant) String() string {
	switch v {
	case Default:
		return "default"
	case Naive:
		return "naive"
	case Precomp:
		return "precomp"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Validate reports whether v names a known kernel variant; the solver
// rejects unknown values at configuration time instead of panicking deep
// inside the first UpdateVelocity call.
func (v Variant) Validate() error {
	if v < Default || v > Blocked {
		return fmt.Errorf("fd: unknown kernel variant %d (want %v..%v)", int(v), Naive, Blocked)
	}
	return nil
}

// Precomputed reports whether v reads the precomputed staggered coefficient
// arrays: Precomp and the production row sweep, which store the same bits.
// One sweep that reads those arrays (attenuation.FusedStress) can stand in
// for either; Naive forms its coefficients in the loop, which is what the
// §IV.B ablation is there to measure, so it keeps kernels of its own.
func (v Variant) Precomputed() bool { return v == Precomp || v == Blocked }

// Blocking carries the cache-blocking factors; the paper's empirically
// best values for a loop length ~125 were kblock=16, jblock=8.
type Blocking struct {
	JBlock, KBlock int
}

// DefaultBlocking is the panel of bench's kernel probes and the fall-back of a
// non-positive factor; the solver sweeps each box as one block.
var DefaultBlocking = Blocking{JBlock: 8, KBlock: 16}

// UpdateVelocity advances the three velocity components over box by one
// time step of length dt using the selected variant.
func UpdateVelocity(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking) {
	if box.Empty() {
		return
	}
	switch v {
	case Naive:
		velocityNaive(s, m, dt, box)
	case Precomp:
		velocityPrecomp(s, m, dt, box)
	case Blocked:
		forEachBlock(box, blk, func(b Box) { velocityRows(s, m, dt, b) })
	default:
		panic("fd: unknown variant")
	}
}

// UpdateStress advances the six stress components over box by one time
// step of length dt using the selected variant.
func UpdateStress(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking) {
	if box.Empty() {
		return
	}
	switch v {
	case Naive:
		stressNaive(s, m, dt, box)
	case Precomp:
		stressPrecomp(s, m, dt, box)
	case Blocked:
		forEachBlock(box, blk, func(b Box) { stressRows(s, m, dt, b) })
	default:
		panic("fd: unknown variant")
	}
}

// Tiles splits box into j/k panels of at most blk.JBlock x blk.KBlock
// cells (full x extent, the same panels forEachBlock visits): the solver's
// tiles. Non-positive blocking factors fall back to DefaultBlocking. An
// empty box yields no tiles.
func Tiles(box Box, blk Blocking) []Box {
	if box.Empty() {
		return nil
	}
	jb, kb := blk.JBlock, blk.KBlock
	if jb <= 0 {
		jb = DefaultBlocking.JBlock
	}
	if kb <= 0 {
		kb = DefaultBlocking.KBlock
	}
	nj := (box.J1 - box.J0 + jb - 1) / jb
	nk := (box.K1 - box.K0 + kb - 1) / kb
	tiles := make([]Box, 0, nj*nk)
	forEachBlock(box, blk, func(b Box) { tiles = append(tiles, b) })
	return tiles
}

// forEachBlock tiles box into jblock x kblock panels (full x extent, as in
// the paper's Fortran blocking) and applies fn to each tile.
func forEachBlock(box Box, blk Blocking, fn func(Box)) {
	jb, kb := blk.JBlock, blk.KBlock
	if jb <= 0 {
		jb = DefaultBlocking.JBlock
	}
	if kb <= 0 {
		kb = DefaultBlocking.KBlock
	}
	for kk := box.K0; kk < box.K1; kk += kb {
		k1 := kk + kb
		if k1 > box.K1 {
			k1 = box.K1
		}
		for jj := box.J0; jj < box.J1; jj += jb {
			j1 := jj + jb
			if j1 > box.J1 {
				j1 = box.J1
			}
			fn(Box{box.I0, box.I1, jj, j1, kk, k1})
		}
	}
}

// velocityPrecomp is the pointwise velocity kernel: all material
// coefficients are precomputed staggered arrays, no divisions. They are
// dense on the subgrid's cells, so a row's cell n of the padded wavefield is
// cell n+c of the coefficients.
func velocityPrecomp(s *State, m *medium.Medium, dt float64, b Box) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	dx, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			c := m.BX.Idx(b.I0, j, k) - n0
			for n, end := n0, n0+(b.I1-b.I0); n < end; n++ {
				u[n] = Quiesce(u[n] + dth*bx[n+c]*(c1*(xx[n+dx]-xx[n])+c2*(xx[n+2*dx]-xx[n-dx])+
					c1*(xy[n]-xy[n-dy])+c2*(xy[n+dy]-xy[n-2*dy])+
					c1*(xz[n]-xz[n-dz])+c2*(xz[n+dz]-xz[n-2*dz])))
				v[n] = Quiesce(v[n] + dth*by[n+c]*(c1*(xy[n]-xy[n-dx])+c2*(xy[n+dx]-xy[n-2*dx])+
					c1*(yy[n+dy]-yy[n])+c2*(yy[n+2*dy]-yy[n-dy])+
					c1*(yz[n]-yz[n-dz])+c2*(yz[n+dz]-yz[n-2*dz])))
				w[n] = Quiesce(w[n] + dth*bz[n+c]*(c1*(xz[n]-xz[n-dx])+c2*(xz[n+dx]-xz[n-2*dx])+
					c1*(yz[n]-yz[n-dy])+c2*(yz[n+dy]-yz[n-2*dy])+
					c1*(zz[n+dz]-zz[n])+c2*(zz[n+2*dz]-zz[n-dz])))
			}
		}
	}
}

// stressPrecomp is the pointwise stress kernel, its coefficients indexed
// as velocityPrecomp's.
func stressPrecomp(s *State, m *medium.Medium, dt float64, b Box) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	dx, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			c := m.Lam.Idx(b.I0, j, k) - n0
			for n, end := n0, n0+(b.I1-b.I0); n < end; n++ {
				exx := c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx])
				eyy := c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy])
				ezz := c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz])
				xx[n] += dth * (l2m[n+c]*exx + lam[n+c]*(eyy+ezz))
				yy[n] += dth * (l2m[n+c]*eyy + lam[n+c]*(exx+ezz))
				zz[n] += dth * (l2m[n+c]*ezz + lam[n+c]*(exx+eyy))
				xy[n] += dth * mxy[n+c] * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]) +
					c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				xz[n] += dth * mxz[n+c] * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]) +
					c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				yz[n] += dth * myz[n+c] * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]) +
					c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))
			}
		}
	}
}

// velocityNaive implements the Naive variant: the per-point reciprocal
// densities are formed in the loop, a division per operand pair as the
// original code did.
func velocityNaive(s *State, m *medium.Medium, dt float64, b Box) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	rho := m.Rho.Data()
	dx, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			for n, end := n0, n0+(b.I1-b.I0); n < end; n++ {
				bxv := 1 / ((rho[n] + rho[n+dx]) / 2)
				byv := 1 / ((rho[n] + rho[n+dy]) / 2)
				bzv := 1 / ((rho[n] + rho[n+dz]) / 2)
				u[n] = Quiesce(u[n] + dth*bxv*(c1*(xx[n+dx]-xx[n])+c2*(xx[n+2*dx]-xx[n-dx])+
					c1*(xy[n]-xy[n-dy])+c2*(xy[n+dy]-xy[n-2*dy])+
					c1*(xz[n]-xz[n-dz])+c2*(xz[n+dz]-xz[n-2*dz])))
				v[n] = Quiesce(v[n] + dth*byv*(c1*(xy[n]-xy[n-dx])+c2*(xy[n+dx]-xy[n-2*dx])+
					c1*(yy[n+dy]-yy[n])+c2*(yy[n+2*dy]-yy[n-dy])+
					c1*(yz[n]-yz[n-dz])+c2*(yz[n+dz]-yz[n-2*dz])))
				w[n] = Quiesce(w[n] + dth*bzv*(c1*(xz[n]-xz[n-dx])+c2*(xz[n+dx]-xz[n-2*dx])+
					c1*(yz[n]-yz[n-dy])+c2*(yz[n+dy]-yz[n-2*dy])+
					c1*(zz[n+dz]-zz[n])+c2*(zz[n+2*dz]-zz[n-dz])))
			}
		}
	}
}

// stressNaive implements the Naive variant of the stress kernel: harmonic
// means of mu are formed in the loop, with a division per operand, from the
// padded Mu; the dense Lam is indexed as in velocityPrecomp.
func stressNaive(s *State, m *medium.Medium, dt float64, b Box) {
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, mu := m.Lam.Data(), m.Mu.Data()
	dx, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			c := m.Lam.Idx(b.I0, j, k) - n0
			for n, end := n0, n0+(b.I1-b.I0); n < end; n++ {
				exx := c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx])
				eyy := c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy])
				ezz := c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz])
				l2m := lam[n+c] + 2*mu[n]
				xx[n] += dth * (l2m*exx + lam[n+c]*(eyy+ezz))
				yy[n] += dth * (l2m*eyy + lam[n+c]*(exx+ezz))
				zz[n] += dth * (l2m*ezz + lam[n+c]*(exx+eyy))
				hxy := hmeanNaive(mu, n, dx, dy)
				hxz := hmeanNaive(mu, n, dx, dz)
				hyz := hmeanNaive(mu, n, dy, dz)
				xy[n] += dth * hxy * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]) +
					c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				xz[n] += dth * hxz * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]) +
					c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				yz[n] += dth * hyz * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]) +
					c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))
			}
		}
	}
}

// hmeanNaive forms the 4-point harmonic mean of mu with one division per
// operand, as the original code did. Top-level (not a closure) so the call
// in the inner loop inlines.
func hmeanNaive(mu []float32, n, da, db int) float32 {
	return 4 / (1/mu[n] + 1/mu[n+da] + 1/mu[n+db] + 1/mu[n+da+db])
}
