package solver

import (
	"bytes"
	"testing"

	"repro/internal/agg"
	"repro/internal/cvm"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

func surfaceFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 16})
}

func surfaceOptions(topo mpi.Cart, fsys *pfs.FS, every, flushEvery int) Options {
	opt := baseOptions(topo)
	opt.Steps = 24
	opt.Surface = &SurfaceOptions{
		FS: fsys, Path: "out/surface.bin",
		Every: every, FlushEvery: flushEvery,
		Agg: agg.Config{Aggregators: 2},
	}
	return opt
}

func readSurface(t *testing.T, fsys *pfs.FS, path string) []byte {
	t.Helper()
	n := fsys.Size(path)
	if n <= 0 {
		t.Fatalf("surface file %q missing", path)
	}
	raw := make([]byte, n)
	if err := fsys.ReadAt(path, 0, raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSurfaceOutputMatchesReceivers cross-checks the aggregated file
// against an independent observable path: a frame's record at a surface
// receiver location must equal the seismogram sample of the same step
// exactly.
func TestSurfaceOutputMatchesReceivers(t *testing.T) {
	fsys := surfaceFS()
	fsys.SetStripe("out/", 4, 1<<12)
	const every = 2
	opt := surfaceOptions(mpi.NewCart(2, 2, 1), fsys, every, 4)
	opt.Receivers = [][3]int{{5, 7, 0}, {17, 3, 0}, {12, 12, 0}}
	q := cvm.SoCal(2400, 2400, 1600, 400)
	res, err := Run(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surface == nil {
		t.Fatal("no surface stats")
	}
	raw := readSurface(t, fsys, "out/surface.bin")
	frameBytes := opt.Global.NX * opt.Global.NY * SurfaceRecBytes
	frames := opt.Steps / every
	if len(raw) != frames*frameBytes {
		t.Fatalf("file %d bytes, want %d frames x %d", len(raw), frames, frameBytes)
	}
	if res.Surface.Frames != frames || res.Surface.Bytes != len(raw) {
		t.Fatalf("stats %+v, want %d frames / %d bytes", res.Surface, frames, len(raw))
	}
	vals := mpiio.GetFloat32s(raw)
	nonzero := false
	for f := 0; f < frames; f++ {
		step := f * every
		for r, loc := range opt.Receivers {
			base := f*opt.Global.NX*opt.Global.NY*3 + (loc[1]*opt.Global.NX+loc[0])*3
			want := res.Seismograms[r][step]
			got := [3]float32{vals[base], vals[base+1], vals[base+2]}
			if got != want {
				t.Fatalf("frame %d receiver %d: file %v, seismogram %v", f, r, got, want)
			}
			if got != ([3]float32{}) {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("all compared records are zero — the cross-check is vacuous")
	}
}

// TestSurfaceOutputInvariants: the file is bit-identical across rank
// topologies and flush intervals, and flush accounting follows the
// configuration.
func TestSurfaceOutputInvariants(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	var ref []byte
	var refStats [2]int // flushes, opens with flushEvery=1 baseline below
	for i, tc := range []struct {
		topo       mpi.Cart
		flushEvery int
	}{
		{mpi.NewCart(1, 1, 1), 1},
		{mpi.NewCart(2, 2, 1), 6},
		{mpi.NewCart(2, 1, 2), 3},
		{mpi.NewCart(1, 2, 2), 100}, // single flush at Finish
	} {
		fsys := surfaceFS()
		fsys.SetStripe("out/", 4, 1<<12)
		opt := surfaceOptions(tc.topo, fsys, 2, tc.flushEvery)
		res, err := Run(q, opt)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		raw := readSurface(t, fsys, "out/surface.bin")
		if i == 0 {
			ref = raw
			refStats = [2]int{res.Surface.Flushes, res.Surface.Opens}
			frames := opt.Steps / 2
			if res.Surface.Flushes != frames {
				t.Fatalf("flushEvery=1: %d flushes for %d frames", res.Surface.Flushes, frames)
			}
			continue
		}
		if !bytes.Equal(raw, ref) {
			t.Fatalf("%+v: surface file differs from single-rank per-frame-flush reference", tc)
		}
		if res.Surface.Flushes >= refStats[0] {
			t.Fatalf("%+v: aggregation did not reduce flushes (%d vs %d)", tc, res.Surface.Flushes, refStats[0])
		}
		if res.Surface.Opens >= refStats[1] {
			t.Fatalf("%+v: aggregation did not reduce opens (%d vs %d)", tc, res.Surface.Opens, refStats[1])
		}
		if res.Surface.MaxConcurrentOpens > agg.DefaultOpenThrottle {
			t.Fatalf("%+v: %d concurrent opens", tc, res.Surface.MaxConcurrentOpens)
		}
	}
}

func TestSurfaceOptionValidation(t *testing.T) {
	fsys := surfaceFS()
	opt := surfaceOptions(mpi.NewCart(1, 1, 1), fsys, 1, 1)
	opt.LTS.Enabled = true
	if _, _, err := Prepare(opt); err == nil {
		t.Error("Surface + LTS accepted")
	}
	opt = surfaceOptions(mpi.NewCart(1, 1, 1), fsys, 1, 1)
	opt.Surface.FS = nil
	if _, _, err := Prepare(opt); err == nil {
		t.Error("Surface without FS accepted")
	}
	// Prepare must not mutate the caller's SurfaceOptions when defaulting.
	shared := &SurfaceOptions{FS: fsys, Path: "s"}
	opt = surfaceOptions(mpi.NewCart(1, 1, 1), fsys, 1, 1)
	opt.Surface = shared
	if _, opt2, err := Prepare(opt); err != nil {
		t.Fatal(err)
	} else if shared.Every != 0 || opt2.Surface.Every != 1 {
		t.Errorf("defaulting leaked into the shared options (%d) or did not apply (%d)", shared.Every, opt2.Surface.Every)
	}
}
