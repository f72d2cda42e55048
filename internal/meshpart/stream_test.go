package meshpart

import (
	"bytes"
	"testing"

	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/testkit"
)

// prePartition is the one-shot reference partitioner: it reads the whole
// global mesh at once and writes every rank's padded sub-mesh file from
// that single in-memory copy, a point at a time, each padded index
// clamped to the grid on its own — the pointwise oracle of extract's rows.
func prePartition(t *testing.T, fsys *pfs.FS, meshPath, outDir string, global grid.Dims, dc decomp.Decomp) {
	t.Helper()
	raw := make([]byte, fsys.Size(meshPath))
	if err := fsys.ReadAt(meshPath, 0, raw); err != nil {
		t.Fatal(err)
	}
	vals := testkit.GetFloat32s(raw)
	g := grid.Ghost
	for r := 0; r < dc.Topo.Size(); r++ {
		sub := dc.SubFor(r)
		d := sub.Local
		var vp, vs, rho []float32
		for k := -g; k < d.NZ+g; k++ {
			for j := -g; j < d.NY+g; j++ {
				for i := -g; i < d.NX+g; i++ {
					gi, gj, gk := clamp(sub.OffX+i, global.NX), clamp(sub.OffY+j, global.NY), clamp(sub.OffZ+k, global.NZ)
					base := ((gk*global.NY+gj)*global.NX + gi) * 3
					vp, vs, rho = append(vp, vals[base]), append(vs, vals[base+1]), append(rho, vals[base+2])
				}
			}
		}
		if err := fsys.WriteAt(PartFileName(outDir, r), 0, testkit.PutFloat32s(append(append(vp, vs...), rho...))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamPrePartitionBitIdenticalToPrePartition(t *testing.T) {
	g := grid.Dims{NX: 12, NY: 12, NZ: 8}
	fsys, dc, _, _ := setup(t, g, mpi.NewCart(2, 3, 2))
	nranks := dc.Topo.Size()

	prePartition(t, fsys, "in/mesh.bin", "full", g, dc)
	st, sst, err := StreamPrePartition(fsys, "in/mesh.bin", "stream", g, dc, 4)
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < nranks; r++ {
		a, b := PartFileName("full", r), PartFileName("stream", r)
		na, nb := fsys.Size(a), fsys.Size(b)
		if na != nb || na <= 0 {
			t.Fatalf("rank %d: sizes %d vs %d", r, na, nb)
		}
		ba := make([]byte, na)
		bb := make([]byte, nb)
		if err := fsys.ReadAt(a, 0, ba); err != nil {
			t.Fatal(err)
		}
		if err := fsys.ReadAt(b, 0, bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("rank %d: streamed part file differs from the one-shot partitioner's", r)
		}
	}

	// 12 part files through a throttle of 4 → 3 waves.
	if sst.Waves != 3 {
		t.Fatalf("waves = %d, want 3", sst.Waves)
	}
	if st.Bytes == 0 || st.Elapsed <= 0 {
		t.Fatalf("write phase not priced: %+v", st)
	}
	if sst.PeakBytes <= 0 {
		t.Fatal("peak bytes not accounted")
	}
}

func TestStreamPrePartitionBoundedMemoryInNZ(t *testing.T) {
	// Growing the mesh in z with fixed per-rank block size must not grow
	// the partitioner's live set — the out-of-core property a one-shot
	// partitioner lacks (its footprint is the whole mesh).
	// p=4 already contains interior ranks (full ±ghost z-blocks), so the
	// per-rank block shape is identical at every larger p.
	var peak int
	for i, p := range []int{4, 8, 16} {
		g := grid.Dims{NX: 8, NY: 8, NZ: 4 * p}
		fsys, dc, _, _ := setup(t, g, mpi.NewCart(1, 1, p))
		if _, sst, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0); err != nil {
			t.Fatal(err)
		} else if i == 0 {
			peak = sst.PeakBytes
		} else if sst.PeakBytes != peak {
			t.Fatalf("NZ=%d: peak %d bytes (was %d) — live set grows with the mesh", g.NZ, sst.PeakBytes, peak)
		}
	}
}
