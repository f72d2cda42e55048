package farm

import (
	"math"
	"testing"

	"repro/internal/cvm"
)

// FuzzScaledQueryRow holds a scenario model's QueryRow to its Query, point
// by point and bit for bit: the default spec's SoCal scaled by VsScale
// across the ensemble's range and past it, over rows that leave the model on
// either side (the medium's ghost rows clamp), at any depth.
func FuzzScaledQueryRow(f *testing.F) {
	f.Add(0.9, 0.0, 0.0, -200.0, 100.0, uint8(24))
	f.Add(1.1, 950.0, 650.0, -200.0, 100.0, uint8(24))
	f.Add(0.95, -300.0, 1e4, 1500.0, 37.5, uint8(9))
	f.Add(1.05, 1800.0, 100.0, 0.0, 1e3, uint8(1))
	f.Add(0.5, 400.0, 300.0, -5e3, 4e2, uint8(40))
	spec := DefaultSpec()
	f.Fuzz(func(t *testing.T, scale, y, z, x0, step float64, n uint8) {
		if scale == 0 || scale == 1 || math.IsNaN(scale) {
			t.Skip("the base model, not a scaled one")
		}
		q := spec.Model(Scenario{VsScale: scale})
		if _, ok := q.(cvm.RowQuerier); !ok {
			t.Fatalf("model %T samples point by point", q)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x0 + float64(i)*step
		}
		got := make([]cvm.Material, n)
		cvm.QueryRow(q, y, z, xs, got)
		for i, x := range xs {
			want := q.Query(x, y, z)
			if math.Float64bits(got[i].Vp) != math.Float64bits(want.Vp) ||
				math.Float64bits(got[i].Vs) != math.Float64bits(want.Vs) ||
				math.Float64bits(got[i].Rho) != math.Float64bits(want.Rho) {
				t.Fatalf("row (y=%g, z=%g) x=%g: QueryRow %+v, Query %+v", y, z, x, got[i], want)
			}
		}
	})
}
