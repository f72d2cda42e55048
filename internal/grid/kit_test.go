package grid_test

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/testkit"
)

// The field helpers tests share live in testkit, over grid's public API.

func TestFill(t *testing.T) {
	f := grid.NewField3G(grid.Dims{NX: 2, NY: 2, NZ: 2}, grid.Ghost)
	testkit.Fill(f, 3)
	for _, v := range f.Data() {
		if v != 3 {
			t.Fatal("Fill did not set all values")
		}
	}
}

func TestSumSqAndL2Diff(t *testing.T) {
	f := grid.NewField3G(grid.Dims{NX: 2, NY: 2, NZ: 1}, grid.Ghost)
	g := grid.NewField3G(grid.Dims{NX: 2, NY: 2, NZ: 1}, grid.Ghost)
	f.Set(0, 0, 0, 3)
	f.Set(1, 1, 0, 4)
	f.Set(-1, 0, 0, 100) // a ghost: neither sum sees it
	if got := testkit.SumSq(f); got != 25 {
		t.Fatalf("SumSq = %v, want 25", got)
	}
	if got := f.L2Diff(g); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2Diff = %v, want 5", got)
	}
	if got := f.L2Diff(f); got != 0 {
		t.Fatalf("self L2Diff = %v, want 0", got)
	}
}

func TestGhostFromStrides(t *testing.T) {
	for _, g := range []int{0, grid.Ghost, 3} {
		if got := testkit.Ghost(grid.NewField3G(grid.Dims{NX: 3, NY: 4, NZ: 2}, g)); got != g {
			t.Fatalf("Ghost = %d, want %d", got, g)
		}
	}
}
