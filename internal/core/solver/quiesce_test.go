package solver

import (
	"math"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// countSubnormals returns how many values of data are non-zero with a zero
// exponent field.
func countSubnormals(data []float32) int {
	n := 0
	for _, x := range data {
		if b := math.Float32bits(x) & 0x7fffffff; b != 0 && b < 0x00800000 {
			n++
		}
	}
	return n
}

// TestNoStoredSubnormals steps a point source in a quiet grid — the numerical
// precursor of the wavefront sweeps the whole domain within the run — and
// after every Step requires that no section of the rank — wavefield, memory
// variable or PML split — holds a subnormal, ghosts included: the quiescence
// floor at the velocity stores (fd.Quiesce, DESIGN.md §9) keeps every array
// either exactly zero or in the normal range.
func TestNoStoredSubnormals(t *testing.T) {
	g := grid.Dims{NX: 32, NY: 16, NZ: 16}
	q := basinOverRock(float64(g.NX/2) * 100)
	for _, abc := range []ABCKind{SpongeABC, MPMLABC} {
		opt := twoSidedOptions(g, 24, mpi.NewCart(2, 1, 1))
		opt.ABC = abc
		opt.pmlWidth = 4

		var once sync.Once
		_, err := runWorld(q, opt, nil, func(c *mpi.Comm, st *Stepper) {
			for _, sec := range st.Sections() {
				if n := countSubnormals(sec.F32); n > 0 {
					once.Do(func() {
						t.Errorf("abc %d: rank %d after step %d: %d subnormal values in %s",
							abc, c.Rank(), st.StepIndex(), n, sec.Name)
					})
				}
			}
		})
		if err != nil {
			t.Fatalf("abc %d: %v", abc, err)
		}
	}
}
