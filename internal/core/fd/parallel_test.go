package fd

import (
	"testing"

	"repro/internal/core/sched"
	"repro/internal/grid"
)

// The pooled tile scheduler must reproduce the serial kernel bit-exactly
// for every variant — tiles are the forEachBlock panels, and cells are
// independent within one kernel application.
func TestTiledKernelsBitIdenticalAllVariants(t *testing.T) {
	d := grid.Dims{NX: 16, NY: 14, NZ: 18}
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	box := FullBox(d)
	blk := Blocking{JBlock: 4, KBlock: 8}

	for _, v := range []Variant{Naive, Precomp, Blocked} {
		ref := randomState(d, 23)
		UpdateVelocity(ref, m, dt, box, v, blk)
		UpdateStress(ref, m, dt, box, v, blk)

		for _, threads := range []int{1, 2, 5, 16} {
			p := sched.NewPool(threads)
			s := randomState(d, 23)
			ForEachTile(box, blk, p, func(b Box) { UpdateVelocity(s, m, dt, b, v, blk) })
			UpdateStressTiled(s, m, dt, box, v, blk, p)
			p.Close()
			if diff := s.L2Diff(ref); diff != 0 {
				t.Fatalf("variant=%v threads=%d: differs from serial by %g", v, threads, diff)
			}
		}
	}
}

func TestTilesCoverBoxExactlyOnce(t *testing.T) {
	box := Box{1, 9, 2, 15, 3, 40}
	blk := Blocking{JBlock: 4, KBlock: 16}
	seen := map[[3]int]int{}
	for _, b := range Tiles(box, blk) {
		if b.I0 != box.I0 || b.I1 != box.I1 {
			t.Errorf("tile altered i extents: %+v", b)
		}
		if b.J1-b.J0 > blk.JBlock || b.K1-b.K0 > blk.KBlock {
			t.Errorf("tile %+v exceeds blocking %+v", b, blk)
		}
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				seen[[3]int{0, j, k}]++
			}
		}
	}
	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			if seen[[3]int{0, j, k}] != 1 {
				t.Fatalf("(j=%d,k=%d) covered %d times", j, k, seen[[3]int{0, j, k}])
			}
		}
	}
	if want := (box.J1 - box.J0) * (box.K1 - box.K0); len(seen) != want {
		t.Fatalf("covered %d cells, want %d", len(seen), want)
	}
}

func TestTilesDegenerate(t *testing.T) {
	if got := Tiles(Box{0, 0, 0, 4, 0, 4}, DefaultBlocking); got != nil {
		t.Fatalf("empty box yielded %d tiles", len(got))
	}
	// Tile larger than box: a single tile equal to the box.
	one := Tiles(Box{0, 3, 0, 5, 0, 7}, Blocking{JBlock: 64, KBlock: 64})
	if len(one) != 1 || one[0] != (Box{0, 3, 0, 5, 0, 7}) {
		t.Fatalf("oversized blocking gave %v", one)
	}
	// Non-positive blocking falls back to defaults rather than dividing by
	// zero.
	n := len(Tiles(Box{0, 8, 0, 32, 0, 32}, Blocking{}))
	dj := (32 + DefaultBlocking.JBlock - 1) / DefaultBlocking.JBlock
	dk := (32 + DefaultBlocking.KBlock - 1) / DefaultBlocking.KBlock
	if n != dj*dk {
		t.Fatalf("default-blocking tile count = %d, want %d", n, dj*dk)
	}
}

func TestForEachTileSerialOrderDeterministic(t *testing.T) {
	box := Box{0, 4, 0, 20, 0, 20}
	blk := Blocking{JBlock: 8, KBlock: 8}
	var ref, got []Box
	forEachBlock(box, blk, func(b Box) { ref = append(ref, b) })
	ForEachTile(box, blk, nil, func(b Box) { got = append(got, b) })
	if len(ref) != len(got) {
		t.Fatalf("%d tiles via ForEachTile, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("tile %d = %+v, want forEachBlock order %+v", i, got[i], ref[i])
		}
	}
}
