package solver

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

func surfaceFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 16})
}

func surfaceOptions(fsys *pfs.FS) Options {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Surface = &SurfaceOptions{FS: fsys, Path: "out/surface.bin", Every: 1, FlushEvery: 1}
	return opt
}

func TestSurfaceOptionValidation(t *testing.T) {
	fsys := surfaceFS()
	opt := surfaceOptions(fsys)
	opt.Surface.FS = nil
	if _, _, err := Prepare(opt); err == nil {
		t.Error("Surface without FS accepted")
	}
	// Prepare must not mutate the caller's SurfaceOptions when defaulting.
	shared := &SurfaceOptions{FS: fsys, Path: "s"}
	opt = surfaceOptions(fsys)
	opt.Surface = shared
	if _, opt2, err := Prepare(opt); err != nil {
		t.Fatal(err)
	} else if shared.Every != 0 || opt2.Surface.Every != 1 {
		t.Errorf("defaulting leaked into the shared options (%d) or did not apply (%d)", shared.Every, opt2.Surface.Every)
	}
}
