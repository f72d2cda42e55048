package solver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// fieldBytes sums the float32 arrays an owner holds in its exported fields:
// every non-nil *grid.Field3 and every []float32. A field added to the
// wavefield, the medium or the attenuation model counts without the test
// naming it.
func fieldBytes(owner any) int {
	v := reflect.ValueOf(owner)
	if v.IsNil() {
		return 0
	}
	v = v.Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f := v.Field(i).Interface().(type) {
		case *grid.Field3:
			if f != nil {
				n += 4 * len(f.Data())
			}
		case []float32:
			n += 4 * len(f)
		}
	}
	return n
}

// TestRankResidentBytes holds what each rank keeps of its field state after
// set-up — the wavefield, the medium, the attenuation model and the PML
// zones' splits — to 4·(11·padded + 16·owned) bytes, plus the free
// surface's one ring plane and, under M-PML, 24 dense splits a zone cell:
// nine wavefield components, Rho and Mu on the padded grid; the eight
// medium coefficients, six memory variables and two deficits on the rank's
// own cells, none with attenuation off; no QP, and QS released. A padded
// coefficient array, a QP or a QS kept past set-up fails it.
func TestRankResidentBytes(t *testing.T) {
	q := cvm.SoCal(5500, 5500, 3900, 500)
	for _, tc := range []struct {
		name  string
		g     grid.Dims
		topo  mpi.Cart
		mpml  bool
		atten bool
	}{
		{"1x1x1", grid.Dims{NX: 24, NY: 20, NZ: 16}, mpi.NewCart(1, 1, 1), false, true},
		{"1x4x2", grid.Dims{NX: 56, NY: 56, NZ: 40}, mpi.NewCart(1, 4, 2), false, true},
		{"mpml", grid.Dims{NX: 56, NY: 56, NZ: 40}, mpi.NewCart(1, 1, 1), true, true},
		{"mpml-2x1x1-elastic", grid.Dims{NX: 56, NY: 28, NZ: 28}, mpi.NewCart(2, 1, 1), true, false},
		{"elastic", grid.Dims{NX: 24, NY: 20, NZ: 16}, mpi.NewCart(1, 2, 1), false, false},
	} {
		opt := twoSidedOptions(tc.g, 1, tc.topo)
		opt.Attenuation = tc.atten
		if tc.mpml {
			opt.ABC = MPMLABC
		}
		dc, opt, err := Prepare(opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var mu sync.Mutex
		var fails []string
		mpi.NewWorld(opt.Topo.Size()).Run(func(c *mpi.Comm) {
			st, err := NewStepper(c, q, dc, opt)
			if err != nil {
				mu.Lock()
				fails = append(fails, err.Error())
				mu.Unlock()
				return
			}
			rs := st
			d := rs.sub.Local
			padded, owned := (d.NX+2*grid.Ghost)*(d.NY+2*grid.Ghost)*(d.NZ+2*grid.Ghost), d.Cells()
			dense := 16
			if !tc.atten {
				dense = 8
			}
			want := 4 * (11*padded + dense*owned + (d.NX+2)*(d.NY+2))
			got := fieldBytes(rs.st) + fieldBytes(rs.med) + fieldBytes(rs.atten)
			for _, z := range rs.zones {
				want += 4 * 24 * z.Zone.Cells()
				for _, sp := range z.Splits() {
					for _, f := range sp.Fields() {
						if f != nil {
							got += 4 * len(f.Data())
						}
					}
				}
			}
			if tc.mpml != (len(rs.zones) > 0) {
				got = -1 // a shape that does not test what it is named for
			}
			if got != want {
				mu.Lock()
				fails = append(fails, fmt.Sprintf("rank %d (%v, %d zones): %d bytes of field state, want %d", c.Rank(), d, len(rs.zones), got, want))
				mu.Unlock()
			}
		})
		for _, f := range fails {
			t.Errorf("%s: %s", tc.name, f)
		}
	}
}
