package decomp

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// NewWorkBalanced builds a decomposition whose cut planes along each
// decomposed axis balance *work* rather than raw cells, for multi-rate
// local time stepping. rateX[i] must be the time-step rate (1, 2, 4, ...)
// of the most restrictive cell anywhere in global x-plane i — a rank
// stepping at rate R does 1/R of the base-rate work per cell, and a
// rank's rate is pinned by its most restrictive cell — and likewise for
// rateY/rateZ. A nil rate slice leaves that axis on the balanced block
// distribution.
//
// Axes are balanced independently: the cost of a contiguous segment is
// width / min(rate over the segment), which is the exact per-rank work
// profile when the topology decomposes a single axis and a conservative
// estimate otherwise. Every part keeps at least grid.Ghost*2 planes so
// the stencil halo never spans more than one neighbor, and the first and last
// part along axis a at least ends[a][0] and ends[a][1] planes: a part on a
// face that carries an absorbing zone must hold the zone and an interior.
func NewWorkBalanced(global grid.Dims, topo mpi.Cart, rateX, rateY, rateZ []int, ends [3][2]int) (Decomp, error) {
	d, err := New(global, topo)
	if err != nil {
		return Decomp{}, err
	}
	axes := [3]struct {
		rates []int
		n, p  int
	}{
		{rateX, global.NX, topo.PX},
		{rateY, global.NY, topo.PY},
		{rateZ, global.NZ, topo.PZ},
	}
	for ax, a := range axes {
		if a.rates == nil || a.p == 1 {
			continue
		}
		if len(a.rates) != a.n {
			return Decomp{}, fmt.Errorf("decomp: axis %d has %d plane rates for %d planes", ax, len(a.rates), a.n)
		}
		cuts, err := balanceAxis(a.rates, a.p, ends[ax][0], ends[ax][1])
		if err != nil {
			return Decomp{}, fmt.Errorf("decomp: axis %d: %w", ax, err)
		}
		d.cuts[ax] = cuts
	}
	return d, nil
}

// balanceAxis partitions n planes into p contiguous segments minimizing
// the maximum segment cost width/minRate under a minimum-width constraint —
// grid.Ghost*2 planes, and at least lo for the first and hi for the last
// segment — by exact dynamic programming (O(p·n²), fine for grid-scale n).
// Returns the p+1 cut offsets.
func balanceAxis(rate []int, p, lo, hi int) ([]int, error) {
	n := len(rate)
	// least[k] is the fewest planes the first k segments can take.
	least := make([]int, p+1)
	for k := 1; k <= p; k++ {
		w := grid.Ghost * 2
		if k == 1 {
			w = max(w, lo)
		}
		if k == p {
			w = max(w, hi)
		}
		least[k] = least[k-1] + w
	}
	if n < least[p] {
		return nil, fmt.Errorf("%d planes cannot host %d parts of >= %d planes with ends of >= %d and %d", n, p, grid.Ghost*2, lo, hi)
	}
	for i, r := range rate {
		if r < 1 {
			return nil, fmt.Errorf("plane %d has rate %d < 1", i, r)
		}
	}
	// f[k][b]: minimal max-segment cost splitting planes [0,b) into k
	// parts; arg[k][b]: the last cut position achieving it.
	f := make([][]float64, p+1)
	arg := make([][]int, p+1)
	for k := 0; k <= p; k++ {
		f[k] = make([]float64, n+1)
		arg[k] = make([]int, n+1)
		for b := 0; b <= n; b++ {
			f[k][b] = math.Inf(1)
			arg[k][b] = -1
		}
	}
	f[0][0] = 0
	for k := 1; k <= p; k++ {
		minW := least[k] - least[k-1]
		bMax := n - (least[p] - least[k])
		for b := least[k]; b <= bMax; b++ {
			// Scan the last cut a downward with a running min of the
			// segment's rate (segment = planes [a, b)).
			minRate := math.MaxInt
			best, bestA := math.Inf(1), -1
			for a := b - 1; a >= least[k-1]; a-- {
				if rate[a] < minRate {
					minRate = rate[a]
				}
				if b-a < minW {
					continue
				}
				cost := float64(b-a) / float64(minRate)
				if m := math.Max(f[k-1][a], cost); m < best {
					best, bestA = m, a
				}
			}
			f[k][b], arg[k][b] = best, bestA
		}
	}
	if math.IsInf(f[p][n], 1) {
		return nil, fmt.Errorf("no feasible %d-way partition of %d planes", p, n)
	}
	cuts := make([]int, p+1)
	cuts[p] = n
	for k, b := p, n; k > 0; k-- {
		b = arg[k][b]
		cuts[k-1] = b
	}
	return cuts, nil
}
