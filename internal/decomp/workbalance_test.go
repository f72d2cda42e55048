package decomp

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

func TestBalanceAxisUniform(t *testing.T) {
	rates := make([]int, 64)
	for i := range rates {
		rates[i] = 1
	}
	cuts, err := balanceAxis(rates, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cuts[0] != 0 || cuts[4] != 64 {
		t.Fatalf("cut endpoints %v", cuts)
	}
	for c := 0; c < 4; c++ {
		if w := cuts[c+1] - cuts[c]; w != 16 {
			t.Fatalf("uniform rates: part %d has width %d, want 16 (cuts %v)", c, w, cuts)
		}
	}
}

func TestBalanceAxisBasinOverRock(t *testing.T) {
	// 96 planes: rock half rate 1, basin half rate 4. Optimal 4-way split
	// gives the basin half to one rank (cost 48/4=12) and splits the rock
	// half three ways (cost 16 each); naive splitting costs 24.
	rates := make([]int, 96)
	for i := range rates {
		if i < 48 {
			rates[i] = 1
		} else {
			rates[i] = 4
		}
	}
	cuts, err := balanceAxis(rates, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	segCost := func(a, b int) float64 {
		minR := rates[a]
		for i := a; i < b; i++ {
			if rates[i] < minR {
				minR = rates[i]
			}
		}
		return float64(b-a) / float64(minR)
	}
	worst := 0.0
	for c := 0; c < 4; c++ {
		if cost := segCost(cuts[c], cuts[c+1]); cost > worst {
			worst = cost
		}
	}
	if worst > 16.0 {
		t.Fatalf("work-balanced worst segment cost %g > 16 (cuts %v)", worst, cuts)
	}
}

func TestBalanceAxisMinWidth(t *testing.T) {
	rates := []int{1, 1, 1, 1, 1, 1, 1}
	if _, err := balanceAxis(rates, 2, 0, 0); err == nil {
		t.Fatal("7 planes in 2 parts of >= 4 should fail")
	}
	if _, err := balanceAxis(append(rates, 1), 2, 0, 0); err != nil {
		t.Fatalf("8 planes in 2 parts: %v", err)
	}
}

// An end segment bounded below keeps its planes even where the balance
// would rather cut it narrow: 25 planes, the low 8 at rate 1 and the rest at
// rate 4, split in two put 5 planes in the first part unbounded; with both
// ends at 11 the first part takes 11 and the second 14.
func TestBalanceAxisEndWidths(t *testing.T) {
	rates := make([]int, 25)
	for i := range rates {
		rates[i] = 1
		if i >= 8 {
			rates[i] = 4
		}
	}
	free, err := balanceAxis(rates, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if free[1] >= 11 {
		t.Fatalf("unbounded cuts %v: the case no longer needs a bound", free)
	}
	cuts, err := balanceAxis(rates, 2, 11, 11)
	if err != nil {
		t.Fatal(err)
	}
	if cuts[1] != 11 {
		t.Fatalf("cuts %v, want the first part at its bound of 11 planes", cuts)
	}
	if _, err := balanceAxis(rates, 2, 11, 15); err == nil {
		t.Fatal("25 planes with ends of 11 and 15 accepted")
	}
}

func TestNewWorkBalancedSubsAndOwner(t *testing.T) {
	g := grid.Dims{NX: 48, NY: 8, NZ: 8}
	rx := make([]int, 48)
	for i := range rx {
		if i < 24 {
			rx[i] = 1
		} else {
			rx[i] = 2
		}
	}
	d, err := NewWorkBalanced(g, mpi.NewCart(3, 1, 1), rx, nil, nil, [3][2]int{})
	if err != nil {
		t.Fatal(err)
	}
	// Subgrids must tile the global grid exactly, in order.
	off := 0
	for r := 0; r < 3; r++ {
		s := d.SubFor(r)
		if s.OffX != off {
			t.Fatalf("rank %d OffX=%d, want %d", r, s.OffX, off)
		}
		if s.Local.NX < grid.Ghost*2 {
			t.Fatalf("rank %d too thin: %d", r, s.Local.NX)
		}
		if s.Local.NY != 8 || s.Local.NZ != 8 {
			t.Fatalf("rank %d non-x dims changed: %v", r, s.Local)
		}
		off += s.Local.NX
	}
	if off != 48 {
		t.Fatalf("subgrids cover %d planes, want 48", off)
	}
	// Owner must agree with SubFor/Contains on every column.
	for gi := 0; gi < 48; gi++ {
		r := d.Owner(gi, 0, 0)
		if _, _, _, ok := d.SubFor(r).Contains(gi, 0, 0); !ok {
			t.Fatalf("Owner(%d)=%d does not contain the cell", gi, r)
		}
	}
	// Cuts accessor matches the subgrid offsets.
	cuts := d.Cuts(0)
	for r := 0; r < 3; r++ {
		if cuts[r] != d.SubFor(r).OffX {
			t.Fatalf("Cuts %v vs SubFor offsets", cuts)
		}
	}
	// Uniform-rate Cuts on a plain decomp reproduce split1.
	d2, err := New(g, mpi.NewCart(3, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	c2 := d2.Cuts(0)
	if c2[0] != 0 || c2[1] != 16 || c2[2] != 32 || c2[3] != 48 {
		t.Fatalf("plain cuts %v", c2)
	}
}

func TestNewWorkBalancedValidation(t *testing.T) {
	g := grid.Dims{NX: 16, NY: 8, NZ: 8}
	if _, err := NewWorkBalanced(g, mpi.NewCart(2, 1, 1), make([]int, 7), nil, nil, [3][2]int{}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	bad := make([]int, 16)
	if _, err := NewWorkBalanced(g, mpi.NewCart(2, 1, 1), bad, nil, nil, [3][2]int{}); err == nil {
		t.Fatal("zero rates should fail")
	}
}
