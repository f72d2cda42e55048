package solver

import (
	"math"
	"testing"

	"repro/internal/core/rupture"
	"repro/internal/cvm"
	"repro/internal/mpi"
)

func TestNegativeThreadsRejected(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Threads = -1
	if _, err := Run(cvm.HardRock(), opt); err == nil {
		t.Fatal("Threads=-1 accepted; must be rejected, not silently serialized")
	}
}

// Every communication model must honor Threads: a 4-thread multi-rank run
// reproduces the serial single-rank wavefield bit-exactly (the pool only
// reschedules independent tiles).
func TestThreadedAllCommModelsBitIdentical(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	ref, err := Run(q, baseOptions(mpi.NewCart(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		opt := baseOptions(mpi.NewCart(2, 2, 1))
		opt.Comm = model
		opt.Threads = 4
		res, err := Run(q, opt)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		for r := range ref.Seismograms {
			for n := range ref.Seismograms[r] {
				if ref.Seismograms[r][n] != res.Seismograms[r][n] {
					t.Fatalf("%v: receiver %d sample %d differs from serial reference", model, r, n)
				}
			}
		}
		for i := range ref.PGVH {
			if math.Abs(ref.PGVH[i]-res.PGVH[i]) > 1e-12 {
				t.Fatalf("%v: PGV mismatch at %d", model, i)
			}
		}
	}
}

// The DFR path orders attenuation after the split-node stress correction;
// the threaded engine must preserve that (it cannot fuse attenuation into
// the stress tiles when a fault is present).
func TestDFRThreadedBitIdentical(t *testing.T) {
	g := baseOptions(mpi.NewCart(1, 1, 1)).Global
	ni, nk := 16, 8
	tau := make([][]float64, nk)
	sn := make([][]float64, nk)
	fr := make([][]rupture.Friction, nk)
	for k := 0; k < nk; k++ {
		tau[k] = make([]float64, ni)
		sn[k] = make([]float64, ni)
		fr[k] = make([]rupture.Friction, ni)
		for i := 0; i < ni; i++ {
			sn[k][i] = 120e6
			tau[k][i] = 70e6
			fr[k][i] = rupture.Friction{MuS: 0.677, MuD: 0.525, Dc: 0.02}
			di, dk := i-ni/2, k-nk/2
			if di*di+dk*dk <= 9 {
				tau[k][i] = 84e6
			}
		}
	}
	mk := func(threads int) *Result {
		opt := baseOptions(mpi.NewCart(2, 1, 1))
		opt.Global = g
		opt.Comm = AsyncReduced
		opt.Threads = threads
		opt.Sources = nil
		opt.Attenuation = true
		opt.Fault = &FaultSpec{
			J0: 12, I0: 4, I1: 4 + ni, K0: 4, K1: 4 + nk,
			Tau0: tau, SigmaN: sn, Friction: fr,
		}
		res, err := Run(cvm.Homogeneous(cvm.Material{Vp: 6000, Vs: 3464, Rho: 2700}), opt)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		return res
	}
	serial, pooled := mk(1), mk(4)
	if serial.FaultStats.MaxSlip == 0 {
		t.Fatal("rupture did not slip")
	}
	for k := range serial.FaultSlip {
		for i := range serial.FaultSlip[k] {
			if serial.FaultSlip[k][i] != pooled.FaultSlip[k][i] {
				t.Fatalf("slip differs at k=%d i=%d: %g vs %g",
					k, i, serial.FaultSlip[k][i], pooled.FaultSlip[k][i])
			}
		}
	}
	if serial.FaultStats.MaxPeakRate != pooled.FaultStats.MaxPeakRate {
		t.Errorf("peak rate differs: %g vs %g",
			serial.FaultStats.MaxPeakRate, pooled.FaultStats.MaxPeakRate)
	}
}
