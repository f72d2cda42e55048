package checkpoint

import (
	"testing"

	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/rupture"
	"repro/internal/grid"
)

// mpmlSections is a small M-PML rank's list: a wavefield and one zone's 24
// splits.
func mpmlSections() []grid.Section {
	d := grid.Dims{NX: 4, NY: 3, NZ: 3}
	s := fd.NewState(d)
	s.VX.Set(1, 1, 1, 2)
	zone := boundary.NewPML(fd.Box{I0: 0, I1: 2, J0: 0, J1: 3, K0: 0, K1: 3}, grid.X, grid.Low, 2, 0.1, 1e-5, 6000, 100)
	return append(s.Sections(), zone.Sections()...)
}

// dfrSections is a small DFR rank's fault state.
func dfrSections(t testing.TB) []grid.Section {
	row := func(v float64) [][]float64 { return [][]float64{{v, v}, {v, v}} }
	fr := rupture.Friction{MuS: 0.677, MuD: 0.525, Dc: 0.4}
	f, err := rupture.NewFault(rupture.Config{J0: 2, I0: 0, I1: 2, K0: 0, K1: 2,
		Tau0: row(70e6), SigmaN: row(120e6), Friction: [][]rupture.Friction{{fr, fr}, {fr, fr}}},
		grid.Dims{NX: 2, NY: 5, NZ: 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	return f.Sections()
}

// FuzzDecode throws arbitrary bytes at the v3 decoder. The invariants: never
// panic, never accept a file whose CRC does not verify or whose table —
// names, kinds, counts — does not describe exactly its length, never hold
// more values than the file's bytes, and accept-then-reencode is stable.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode(0, []grid.Section{{Name: "v", F32: []float32{0}}}))
	f.Add(encode(1<<30, []grid.Section{{Name: "a", F32: []float32{1, 2, 3}}, {Name: "b", F64: []float64{4}}}))
	damaged := encode(7, []grid.Section{{Name: "vx", F32: []float32{4, 5}}})
	damaged[headerLen] ^= 0x80
	f.Add(damaged)
	f.Add(damaged[:headerLen+1])
	f.Add([]byte("AWPC not really a checkpoint"))
	f.Add(encode(8, mpmlSections()))
	f.Add(encode(16, dfrSections(f)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		check(t, raw)
		// The CRC rejects almost every mutation before the table is read; the
		// same bytes with a matching trailer take the table parser's paths.
		if len(raw) >= headerLen+trailerLen {
			check(t, resum(append([]byte(nil), raw...)))
		}
	})
}

func check(t *testing.T, raw []byte) {
	step, tab, vals, err := decode(raw)
	if err != nil {
		return
	}
	// Accepted: rebuild the sections the table describes, fill them and
	// re-encode; the bytes must be the input's.
	secs := make([]grid.Section, len(tab))
	held := 0
	for i, e := range tab {
		held += e.kind * e.count
		if held > len(raw) {
			t.Fatalf("the table holds %d value bytes in a %d-byte file", held, len(raw))
		}
		secs[i] = grid.Section{Name: e.name, F32: make([]float32, e.count)}
		if e.kind == 8 {
			secs[i] = grid.Section{Name: e.name, F64: make([]float64, e.count)}
		}
	}
	fill(secs, vals)
	if re := encode(int(step), secs); string(re) != string(raw) {
		t.Fatalf("re-encode of accepted file differs: %d vs %d bytes", len(re), len(raw))
	}
}
