package cvm

// RowQuerier is a Querier that answers a whole x-row per call, bit for bit
// what Query answers point by point (FuzzQueryRow). The loops of this file
// carry no bounds checks: scripts/check_bce.sh guards it.
type RowQuerier interface {
	Querier
	QueryRow(y, z float64, xs []float64, out []Material)
}

// QueryRow sets out[i] to q's material at (xs[i], y, z): through q's own
// QueryRow when it has one, else one Query per point.
func QueryRow(q Querier, y, z float64, xs []float64, out []Material) {
	if r, ok := q.(RowQuerier); ok {
		r.QueryRow(y, z, xs, out)
		return
	}
	out = out[:len(xs)]
	for i, x := range xs {
		out[i] = q.Query(x, y, z)
	}
}

// QueryRow implements RowQuerier. The background depends on depth alone, so
// it is computed once per row, and a basin is dropped for the whole row when
// dy²+dz² already reaches 1: sample's r2 adds dx² ≥ 0 to that sum, and
// rounding is monotone, so it cannot return in anywhere on the row. The
// margin covers targets that fuse r2 into multiply-adds.
func (m *Model) QueryRow(y, z float64, xs []float64, out []Material) {
	out, y, z = out[:len(xs)], clamp(y, m.LY), clamp(z, m.LZ)
	vs0, vp0, rho0 := m.background(z)
	live := make([]Basin, 0, 8)
	for _, b := range m.Basins {
		if dy, dz := (y-b.CY)/b.RY, z/b.Depth; dy*dy+dz*dz < 1+1e-9 {
			live = append(live, b)
		}
	}
	bg := m.finish(vs0, vp0, rho0)
	for i, x := range xs {
		out[i] = bg
		if len(live) > 0 {
			x, vs, vp, rho := clamp(x, m.LX), vs0, vp0, rho0
			for j := range live {
				if bvs, bvp, brho, in := live[j].sample(x, y, z, vs); in && bvs < vs {
					vs, vp, rho = bvs, bvp, brho
				}
			}
			out[i] = m.finish(vs, vp, rho)
		}
	}
}
