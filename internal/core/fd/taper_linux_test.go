package fd

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/grid"
)

// guardedAxis returns n float32s that end where a page no access may touch
// begins, so a load past the last value faults.
func guardedAxis(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-4*n])), n)
}

// TestTaperTailReadsNoFxPastTheRow runs the tapered stress and velocity
// walkers over tiles whose rows end at the padded x axis' last cell, with fx
// ending there too and nothing mapped after it: a masked tail that loaded fx
// whole would fault. The walkers must also store the Go body's bits.
func TestTaperTailReadsNoFxPastTheRow(t *testing.T) {
	if !Vector {
		t.Skip("no 8-lane walker on this host")
	}
	d := walkerDims
	m := makeMedium(t, heteroQuerier(), d, 200)
	dt := m.StableDt(0.5)
	tp := testTapers(d, 4)[1].tp
	guarded := Taper{X: guardedAxis(t, len(tp.X)), Y: tp.Y, Z: tp.Z}
	copy(guarded.X, tp.X)
	g := grid.Ghost
	for _, n := range []int{1, 5, 7, 9, 12, 21} {
		box := Box{I0: d.NX + g - n, I1: d.NX + g, J0: 1, J1: 3, K0: 1, K1: 3}
		ref, s := randomState(d, 6), randomState(d, 6)
		stressSweep(ref, m, dt, box, tp, false)
		stressSweep(s, m, dt, box, guarded, true)
		expectBits(t, fmt.Sprintf("stress %v", box), s.Fields(), ref.Fields(), FieldNames)
		// The velocity stencil reads xx two cells past the row, so its rows
		// end one ghost cell short of the padded axis; fx ends with them.
		vbox := box
		vbox.I0, vbox.I1 = box.I0-g, box.I1-g
		vfx := guardedAxis(t, vbox.I1+g)
		copy(vfx, tp.X)
		ref, s = randomState(d, 7), randomState(d, 7)
		velocitySweep(ref, m, dt, vbox, tp, false)
		velocitySweep(s, m, dt, vbox, Taper{X: vfx, Y: tp.Y, Z: tp.Z}, true)
		expectBits(t, fmt.Sprintf("velocity %v", vbox), s.Fields(), ref.Fields(), FieldNames)
	}
}
