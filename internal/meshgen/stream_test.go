package meshgen

import (
	"bytes"
	"testing"

	"repro/internal/agg"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

func streamFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 16})
}

func readAll(t *testing.T, fsys *pfs.FS, path string) []byte {
	t.Helper()
	n := fsys.Size(path)
	if n < 0 {
		t.Fatalf("%s missing", path)
	}
	raw := make([]byte, n)
	if err := fsys.ReadAt(path, 0, raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// generate is the one-shot reference mesh: the whole volume in memory,
// each record the CVM's material at its node, written with one WriteAt.
func generate(t *testing.T, fsys *pfs.FS, q cvm.Querier, sp Spec) {
	t.Helper()
	g := sp.Global
	vals := make([]float32, 0, g.Cells()*3)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				m := q.Query(float64(i)*sp.H, float64(j)*sp.H, float64(k)*sp.H)
				vals = append(vals, float32(m.Vp), float32(m.Vs), float32(m.Rho))
			}
		}
	}
	if err := fsys.WriteAt(sp.Path, 0, mpiio.PutFloat32s(vals)); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateStreamedBitIdenticalToGenerate(t *testing.T) {
	g := grid.Dims{NX: 7, NY: 5, NZ: 12}
	q := cvm.SoCal(3000, 2500, 4000, 400)
	fsys := streamFS()
	fsys.SetStripe("m/", 4, 1<<9)
	generate(t, fsys, q, Spec{Path: "m/ref", Global: g, H: 500})
	for _, chunk := range []int{1, 2, 5} {
		for _, cores := range []int{1, 3, 4} {
			st, err := GenerateStreamed(fsys, q, StreamSpec{
				Spec:        Spec{Path: "m/str", Global: g, H: 500, Cores: cores},
				ChunkPlanes: chunk,
				Agg:         agg.Config{Aggregators: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readAll(t, fsys, "m/ref"), readAll(t, fsys, "m/str")) {
				t.Fatalf("cores=%d chunk=%d: streamed mesh differs from one-shot mesh", cores, chunk)
			}
			planeBytes := g.NX * g.NY * RecBytes
			if st.PeakCoreBytes > chunk*planeBytes {
				t.Fatalf("cores=%d chunk=%d: peak %d bytes exceeds chunk bound %d",
					cores, chunk, st.PeakCoreBytes, chunk*planeBytes)
			}
			if st.Rounds != (g.NZ+cores*chunk-1)/(cores*chunk) {
				t.Fatalf("rounds = %d", st.Rounds)
			}
			fsys.Remove("m/str")
		}
	}
}

func TestGenerateStreamedBoundedMemoryInNZ(t *testing.T) {
	// The out-of-core gate: peak live mesh bytes per core depend on the
	// chunk size, not on NZ.
	q := cvm.SoCal(3000, 2500, 4000, 400)
	const chunk, cores = 2, 4
	var peak int
	for i, nz := range []int{8, 32, 128} {
		fsys := streamFS()
		g := grid.Dims{NX: 6, NY: 4, NZ: nz}
		st, err := GenerateStreamed(fsys, q, StreamSpec{
			Spec:        Spec{Path: "mesh", Global: g, H: 500, Cores: cores},
			ChunkPlanes: chunk,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != g.Cells()*RecBytes {
			t.Fatalf("NZ=%d: bytes %d", nz, st.Bytes)
		}
		if i == 0 {
			peak = st.PeakCoreBytes
			if peak != chunk*g.NX*g.NY*RecBytes {
				t.Fatalf("peak %d, want one chunk %d", peak, chunk*g.NX*g.NY*RecBytes)
			}
			continue
		}
		if st.PeakCoreBytes != peak {
			t.Fatalf("NZ=%d: peak grew to %d (was %d at NZ=8) — not out-of-core", nz, st.PeakCoreBytes, peak)
		}
	}
}

// TestGenerateWriteFaultPropagates is the regression test for the
// silently dropped WriteAt error: a permanently failing PFS must fail mesh
// generation, and a transiently failing one must heal through retry with
// the file intact.
func TestGenerateWriteFaultPropagates(t *testing.T) {
	g := grid.Dims{NX: 5, NY: 4, NZ: 6}
	q := cvm.SoCal(3000, 2500, 4000, 400)
	ssp := StreamSpec{Spec: Spec{Path: "mesh", Global: g, H: 500, Cores: 2}}

	fsys := streamFS()
	fsys.InjectFaults(pfs.FaultPlan{Seed: 3, WriteFailProb: 1, MaxConsecutive: 1 << 30})
	if _, err := GenerateStreamed(fsys, q, ssp); err == nil {
		t.Fatal("GenerateStreamed succeeded on a permanently failing PFS")
	}

	ref := streamFS()
	if _, err := GenerateStreamed(ref, q, ssp); err != nil {
		t.Fatal(err)
	}
	healed := streamFS()
	healed.InjectFaults(pfs.FaultPlan{Seed: 3, WriteFailProb: 0.5, MaxConsecutive: 1})
	if _, err := GenerateStreamed(healed, q, ssp); err != nil {
		t.Fatalf("GenerateStreamed did not heal transient faults: %v", err)
	}
	if !bytes.Equal(readAll(t, ref, "mesh"), readAll(t, healed, "mesh")) {
		t.Fatal("mesh written under transient faults differs")
	}
	if healed.FaultStats().FailedWrites == 0 {
		t.Fatal("fault plan never fired — test is vacuous")
	}
}

func TestGenerateStreamedWriteFaultPropagates(t *testing.T) {
	g := grid.Dims{NX: 5, NY: 4, NZ: 6}
	q := cvm.SoCal(3000, 2500, 4000, 400)
	fsys := streamFS()
	fsys.InjectFaults(pfs.FaultPlan{Seed: 7, WriteFailProb: 1, MaxConsecutive: 1 << 30})
	if _, err := GenerateStreamed(fsys, q, StreamSpec{
		Spec: Spec{Path: "mesh", Global: g, H: 500, Cores: 2}, ChunkPlanes: 2,
	}); err == nil {
		t.Fatal("GenerateStreamed succeeded on a permanently failing PFS")
	}
}
