package meshpart

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/medium"
	"repro/internal/meshgen"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/testkit"
)

// ReadPrePartitioned loads one rank's pre-partitioned sub-mesh (the
// fast-path solver input; M8 read 223,074 of these in 4 minutes with open
// throttling).
func ReadPrePartitioned(fsys *pfs.FS, dir string, global grid.Dims, dc decomp.Decomp, rank int) (SubMesh, error) {
	sub := dc.SubFor(rank)
	n := paddedLen(sub.Local)
	raw := make([]byte, 3*n*4)
	if err := fsys.ReadAt(PartFileName(dir, rank), 0, raw); err != nil {
		return SubMesh{}, err
	}
	vals := testkit.GetFloat32s(raw)
	return SubMesh{Dims: sub.Local, VP: vals[:n], VS: vals[n : 2*n], Rho: vals[2*n : 3*n]}, nil
}

func setup(t *testing.T, g grid.Dims, topo mpi.Cart) (*pfs.FS, decomp.Decomp, cvm.Querier, float64) {
	t.Helper()
	fsys := pfs.New(pfs.Config{OSTs: 16, OSTBandwidth: 100e6, MDSLatency: 1e-4, MDSConcurrent: 8})
	dc, err := decomp.New(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Model extent ends at the last grid node so that coordinate clamping
	// (direct CVM extraction) and index clamping (partitioned files) see
	// the same edge values.
	q := cvm.SoCal(float64(g.NX-1)*500, float64(g.NY-1)*500, float64(g.NZ-1)*500, 400)
	if _, err := meshgen.GenerateStreamed(fsys, q, meshgen.StreamSpec{
		Spec: meshgen.Spec{Path: "in/mesh.bin", Global: g, H: 500, Cores: 3},
	}); err != nil {
		t.Fatal(err)
	}
	return fsys, dc, q, 500
}

func TestMeshgenMatchesCVM(t *testing.T) {
	g := grid.Dims{NX: 10, NY: 8, NZ: 6}
	fsys, _, q, h := setup(t, g, mpi.NewCart(1, 1, 1))
	for _, p := range [][3]int{{0, 0, 0}, {9, 7, 5}, {4, 3, 2}} {
		raw := make([]byte, meshgen.RecBytes)
		if err := fsys.ReadAt("in/mesh.bin", ((p[2]*g.NY+p[1])*g.NX+p[0])*meshgen.RecBytes, raw); err != nil {
			t.Fatal(err)
		}
		got := testkit.GetFloat32s(raw)
		want := q.Query(float64(p[0])*h, float64(p[1])*h, float64(p[2])*h)
		if math.Abs(float64(got[0])-want.Vp) > 0.5 || math.Abs(float64(got[1])-want.Vs) > 0.5 {
			t.Fatalf("point %v: got %v want %+v", p, got, want)
		}
	}
}

func TestMeshgenValidation(t *testing.T) {
	fsys := pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
	q := cvm.HardRock()
	if _, err := meshgen.GenerateStreamed(fsys, q, meshgen.StreamSpec{Spec: meshgen.Spec{Path: "m", Global: grid.Dims{NX: 4, NY: 4, NZ: 4}, H: 100, Cores: 9}}); err == nil {
		t.Error("cores > NZ accepted")
	}
	if _, err := meshgen.GenerateStreamed(fsys, q, meshgen.StreamSpec{Spec: meshgen.Spec{Path: "m", Global: grid.Dims{NX: 4, NY: 4, NZ: 4}, H: 0, Cores: 2}}); err == nil {
		t.Error("h=0 accepted")
	}
}

func TestPrePartitionRoundTrip(t *testing.T) {
	g := grid.Dims{NX: 12, NY: 10, NZ: 8}
	topo := mpi.NewCart(2, 2, 1)
	fsys, dc, q, h := setup(t, g, topo)
	if _, _, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.Size(); r++ {
		sm, err := ReadPrePartitioned(fsys, "parts", g, dc, r)
		if err != nil {
			t.Fatal(err)
		}
		// Feed the solver path and compare against direct CVM extraction.
		m1, err := medium.FromArrays(sm.Dims, h, sm.VP, sm.VS, sm.Rho)
		if err != nil {
			t.Fatal(err)
		}
		m2 := medium.FromCVM(q, dc, dc.SubFor(r), h)
		d1, d2 := m1.Rho.Data(), m2.Rho.Data()
		for n := range d1 {
			if rel(d1[n], d2[n]) > 1e-5 {
				t.Fatalf("rank %d: rho[%d] %g vs %g", r, n, d1[n], d2[n])
			}
		}
	}
}

func TestOnDemandMatchesPrePartitioned(t *testing.T) {
	g := grid.Dims{NX: 12, NY: 10, NZ: 8}
	topo := mpi.NewCart(2, 1, 2)
	fsys, dc, _, _ := setup(t, g, topo)
	if _, _, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct{ readers, ysplit int }{{1, 1}, {2, 1}, {4, 1}, {2, 2}, {3, 5}} {
		subs, stats, err := OnDemand(fsys, "in/mesh.bin", g, dc, cfg.readers, cfg.ysplit)
		if err != nil {
			t.Fatalf("readers=%d ysplit=%d: %v", cfg.readers, cfg.ysplit, err)
		}
		if stats.Bytes == 0 {
			t.Error("no read bytes accounted")
		}
		for r := 0; r < topo.Size(); r++ {
			pre, err := ReadPrePartitioned(fsys, "parts", g, dc, r)
			if err != nil {
				t.Fatal(err)
			}
			for n := range pre.VP {
				if subs[r].VP[n] != pre.VP[n] || subs[r].Rho[n] != pre.Rho[n] {
					t.Fatalf("cfg %+v rank %d: element %d differs", cfg, r, n)
				}
			}
		}
	}
}

func TestOnDemandValidation(t *testing.T) {
	g := grid.Dims{NX: 8, NY: 8, NZ: 8}
	fsys, dc, _, _ := setup(t, g, mpi.NewCart(2, 1, 1))
	if _, _, err := OnDemand(fsys, "in/mesh.bin", g, dc, 0, 1); err == nil {
		t.Error("0 readers accepted")
	}
	if _, _, err := OnDemand(fsys, "in/mesh.bin", g, dc, 5, 1); err == nil {
		t.Error("more readers than ranks accepted")
	}
}

// A reader whose read fails — the mesh file is missing, or ends before the
// planes it reads — must abort the world and OnDemand return that error,
// not leave the receivers waiting for its rectangles forever.
func TestOnDemandReadFailureReturns(t *testing.T) {
	g := grid.Dims{NX: 16, NY: 16, NZ: 8}
	fsys, dc, _, _ := setup(t, g, mpi.NewCart(2, 2, 1))
	whole := make([]byte, fsys.Size("in/mesh.bin"))
	if err := fsys.ReadAt("in/mesh.bin", 0, whole); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteAt("in/short.bin", 0, whole[:len(whole)*3/4]); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"in/missing.bin", "in/short.bin"} {
		done := make(chan error, 1)
		go func() {
			_, _, err := OnDemand(fsys, path, g, dc, 2, 1)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || errors.Is(err, mpi.ErrWorldAborted) {
				t.Errorf("%s: err = %v, want the reader's read error", path, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: OnDemand has not returned after a minute", path)
		}
	}
}

// More readers reading smaller contiguous chunks should not increase the
// simulated read time (the Fig 9 scalability property).
func TestMoreReadersNoSlower(t *testing.T) {
	g := grid.Dims{NX: 16, NY: 16, NZ: 12}
	topo := mpi.NewCart(2, 2, 3)
	fsys, dc, _, _ := setup(t, g, topo)
	_, s1, err := OnDemand(fsys, "in/mesh.bin", g, dc, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, s4, err := OnDemand(fsys, "in/mesh.bin", g, dc, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s4.IOTime > s1.IOTime*1.01 {
		t.Fatalf("4 readers slower than 1: %g vs %g", s4.IOTime, s1.IOTime)
	}
}

func rel(a, b float32) float64 {
	if b == 0 {
		return math.Abs(float64(a))
	}
	return math.Abs(float64(a-b)) / math.Abs(float64(b))
}

// A degenerate 1-rank "decomposition" must still work through every
// partitioning path — pre-partitioned, on-demand with the sole rank as
// its own reader — and agree with direct CVM extraction including the
// clamped ghost shell (every ghost is a global-boundary ghost here).
func TestSingleRankDegenerateDecomp(t *testing.T) {
	g := grid.Dims{NX: 9, NY: 7, NZ: 6}
	topo := mpi.NewCart(1, 1, 1)
	fsys, dc, q, h := setup(t, g, topo)
	if _, _, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0); err != nil {
		t.Fatal(err)
	}
	pre, err := ReadPrePartitioned(fsys, "parts", g, dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	subs, _, err := OnDemand(fsys, "in/mesh.bin", g, dc, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n := range pre.VP {
		if subs[0].VP[n] != pre.VP[n] || subs[0].VS[n] != pre.VS[n] || subs[0].Rho[n] != pre.Rho[n] {
			t.Fatalf("on-demand differs from pre-partitioned at element %d", n)
		}
	}
	m1, err := medium.FromArrays(pre.Dims, h, pre.VP, pre.VS, pre.Rho)
	if err != nil {
		t.Fatal(err)
	}
	m2 := medium.FromCVM(q, dc, dc.SubFor(0), h)
	d1, d2 := m1.Rho.Data(), m2.Rho.Data()
	for n := range d1 {
		if rel(d1[n], d2[n]) > 1e-5 {
			t.Fatalf("rho[%d] %g vs %g", n, d1[n], d2[n])
		}
	}
}

// An x axis that does not divide evenly puts a wider rank against the
// global x=0 boundary than against x=NX-1. The ghost shells of both extreme
// ranks must clamp to the boundary planes exactly as direct extraction does.
func TestGhostClampingAtBoundariesWorkBalanced(t *testing.T) {
	g := grid.Dims{NX: 20, NY: 8, NZ: 8}
	topo := mpi.NewCart(3, 1, 1)
	fsys, _, q, h := setup(t, g, topo)
	dc, err := decomp.New(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := dc.SubFor(0).Local.NX, dc.SubFor(topo.Size()-1).Local.NX; first == last {
		t.Fatalf("the %v grid splits evenly over %d ranks: the end ranks are both %d wide", g, topo.Size(), first)
	}
	if _, _, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, topo.Size() - 1} {
		sm, err := ReadPrePartitioned(fsys, "parts", g, dc, r)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := medium.FromArrays(sm.Dims, h, sm.VP, sm.VS, sm.Rho)
		if err != nil {
			t.Fatal(err)
		}
		m2 := medium.FromCVM(q, dc, dc.SubFor(r), h)
		d1, d2 := m1.Rho.Data(), m2.Rho.Data()
		for n := range d1 {
			if rel(d1[n], d2[n]) > 1e-5 {
				t.Fatalf("rank %d: rho[%d] %g vs %g (ghost clamp mismatch)", r, n, d1[n], d2[n])
			}
		}
	}
}

// On-demand partitioning must agree element-for-element with the
// pre-partitioned files on an uneven-cut decomposition (26 planes over 4
// ranks: 7, 7, 6, 6), across reader counts and y subdivision.
func TestOnDemandParityOnWorkBalancedDecomp(t *testing.T) {
	g := grid.Dims{NX: 26, NY: 10, NZ: 8}
	topo := mpi.NewCart(4, 1, 1)
	fsys, _, _, _ := setup(t, g, topo)
	dc, err := decomp.New(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct{ readers, ysplit int }{{1, 1}, {2, 1}, {4, 2}, {3, 3}} {
		subs, stats, err := OnDemand(fsys, "in/mesh.bin", g, dc, cfg.readers, cfg.ysplit)
		if err != nil {
			t.Fatalf("readers=%d ysplit=%d: %v", cfg.readers, cfg.ysplit, err)
		}
		if stats.Bytes == 0 {
			t.Error("no read bytes accounted")
		}
		for r := 0; r < topo.Size(); r++ {
			pre, err := ReadPrePartitioned(fsys, "parts", g, dc, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(subs[r].VP) != len(pre.VP) {
				t.Fatalf("cfg %+v rank %d: padded length %d vs %d", cfg, r, len(subs[r].VP), len(pre.VP))
			}
			for n := range pre.VP {
				if subs[r].VP[n] != pre.VP[n] || subs[r].VS[n] != pre.VS[n] || subs[r].Rho[n] != pre.Rho[n] {
					t.Fatalf("cfg %+v rank %d: element %d differs", cfg, r, n)
				}
			}
		}
	}
}
