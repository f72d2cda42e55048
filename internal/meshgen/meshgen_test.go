package meshgen

import (
	"bytes"
	"testing"

	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/pfs"
)

func TestGenerateCoreCountInvariance(t *testing.T) {
	// The mesh file must be identical no matter how many extraction cores
	// are used (the z-slice parallelization is pure decomposition).
	g := grid.Dims{NX: 6, NY: 5, NZ: 8}
	q := cvm.SoCal(3000, 2500, 4000, 400)
	var ref []byte
	for _, cores := range []int{1, 2, 4, 8} {
		fsys := pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
		st, err := GenerateStreamed(fsys, q, StreamSpec{Spec: Spec{Path: "mesh", Global: g, H: 500, Cores: cores}})
		if err != nil {
			t.Fatal(err)
		}
		if st.Points != g.Cells() || st.Bytes != g.Cells()*RecBytes {
			t.Fatalf("stats %+v", st.Stats)
		}
		if st.WritePhase.Bytes == 0 {
			t.Error("write phase not priced")
		}
		raw := readAll(t, fsys, "mesh")
		if ref == nil {
			ref = raw
			continue
		}
		if !bytes.Equal(raw, ref) {
			t.Fatalf("cores=%d: mesh differs from cores=1", cores)
		}
	}
}
