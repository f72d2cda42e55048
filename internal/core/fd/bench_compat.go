package fd

// What only the benchmark reaches, kept until it stops calling it: the
// §IV.B ablation — the Variant dispatch, the cache-block panels and the
// Naive and Precomp kernels, which the tests also hold the production pair
// to — and the pool-tiled stress sweep.
//
//	bench/probes.go:132  fd.UpdateVelocity(st, med, dt, box, v, fd.DefaultBlocking)
//	bench/probes.go:134  fd.UpdateStress(st, med, dt, box, v, fd.DefaultBlocking)
//	bench/probes.go:144  perCell(fd.Fused)
//	bench/probes.go:222  fd.Tiles(box, fd.DefaultBlocking)
//	bench/probes.go:226  fd.ForEachTile(box, fd.DefaultBlocking, two, ...)
//	bench/probes.go:231  fd.UpdateStressTiled(..., one)
//	bench/probes.go:232  fd.UpdateStressTiled(..., two)

import (
	"math"

	"repro/internal/core/sched"
	"repro/internal/medium"
)

// Fused is the former name of the row sweep that is now Blocked.
const Fused = Blocked

// Blocking carries the cache-blocking factors of UpdateVelocity and
// UpdateStress; the paper's empirically best values for a loop length ~125
// were kblock=16, jblock=8. The solver sweeps each of its tiles as one block.
type Blocking struct {
	JBlock, KBlock int
}

// DefaultBlocking is the panel of bench's kernel probes and the fall-back of a
// non-positive factor.
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
		forEachBlock(box, blk, func(b Box) { velocitySweep(s, m, dt, b, Taper{}, Vector) })
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
		forEachBlock(box, blk, func(b Box) { stressSweep(s, m, dt, b, Taper{}, Vector) })
	default:
		panic("fd: unknown variant")
	}
}

// Tiles splits box into j/k panels of at most blk.JBlock x blk.KBlock
// cells (full x extent, the same panels forEachBlock visits). Non-positive blocking factors fall back to DefaultBlocking. An
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

// UpdateStressTiled runs UpdateStress over box as a tile queue on the
// persistent pool (the §IV.D hybrid mode, which the solver does not run:
// its ranks are single goroutines, DESIGN.md §7). Results are
// bit-identical to the serial kernel for every Variant.
func UpdateStressTiled(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking, p *sched.Pool) {
	ForEachTile(box, blk, p, func(b Box) {
		UpdateStress(s, m, dt, b, v, blk)
	})
}

// ForEachTile runs fn over the j/k tiles of box on the pool (serially for
// a nil/serial pool). A serial pool visits tiles in the deterministic
// forEachBlock order.
func ForEachTile(box Box, blk Blocking, p *sched.Pool, fn func(Box)) {
	if box.Empty() {
		return
	}
	if p.Size() == 1 {
		forEachBlock(box, blk, fn)
		return
	}
	tiles := Tiles(box, blk)
	p.ForEachN(len(tiles), func(i int) { fn(tiles[i]) })
}

// Clone deep-copies the state into fields placed as NewState places them.
func (s *State) Clone() *State {
	c := NewState(s.Dims)
	src := s.Fields()
	for i, f := range c.Fields() {
		f.CopyFrom(src[i])
	}
	return c
}

// L2Diff returns the root-sum-square difference over all nine components.
func (s *State) L2Diff(o *State) float64 {
	var sum float64
	sf, of := s.Fields(), o.Fields()
	for i := range sf {
		d := sf[i].L2Diff(of[i])
		sum += d * d
	}
	// sqrt of sum of squared L2 norms.
	return math.Sqrt(sum)
}

// MaxAbs returns the largest absolute value across all components.
func (s *State) MaxAbs() float32 {
	var m float32
	for _, f := range s.Fields() {
		if v := f.MaxAbs(); v > m {
			m = v
		}
	}
	return m
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
