package solver

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// checkRoundTags fails when two messages of one round would be
// indistinguishable to a peer: same peer and same tag, in either direction.
func checkRoundTags(t *testing.T, label string, s *schedule) {
	t.Helper()
	for ri, r := range s.rounds {
		seen := map[[3]int]bool{}
		for _, m := range r.msgs {
			for dir, tag := range [2]int{m.sendTag, m.recvTag} {
				k := [3]int{m.peer, dir, tag}
				if seen[k] {
					t.Errorf("%s round %d: two messages with peer %d share tag %d", label, ri, m.peer, tag)
				}
				seen[k] = true
			}
		}
	}
}

// The schedule agrees with its own execution: on every rank, the messages
// and floats obtained by walking the schedules the Stepper built equal
// what the runtime counts at its delivery point over one real Step — a
// step, a super-step or an LTS cycle — and no round reuses a tag toward
// one peer.
func TestScheduleMatchesExecution(t *testing.T) {
	run := func(label string, q cvm.Querier, opt Options) {
		t.Helper()
		dc, opt, err := Prepare(opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var mu sync.Mutex
		var walkMsgs, walkFloats int
		var gotMsgs, gotFloats uint64
		world := mpi.NewWorld(opt.Topo.Size())
		world.Run(func(c *mpi.Comm) {
			st, err := NewStepper(c, q, dc, opt)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			defer st.Close()
			rs := st.rs
			msgs, floats := 0, 0
			walk := func(s *schedule) {
				m, f := s.traffic()
				msgs, floats = msgs+m, floats+f
			}
			switch l := rs.lts; {
			case rs.deep != nil:
				checkRoundTags(t, label, rs.deep)
				walk(rs.deep)
			case l != nil && l.maxRate > 1:
				for sub := 0; sub < l.maxRate; sub += l.rate {
					for _, s := range []*schedule{rs.vel, rs.stress} {
						l.arm(s, sub)
						walk(s)
					}
				}
			default:
				checkRoundTags(t, label, rs.vel)
				checkRoundTags(t, label, rs.stress)
				walk(rs.vel)
				walk(rs.stress)
			}
			mu.Lock()
			walkMsgs, walkFloats = walkMsgs+msgs, walkFloats+floats
			mu.Unlock()

			c.Barrier()
			if c.Rank() == 0 {
				world.ResetMessageStats()
			}
			c.Barrier()
			st.Step()
			c.Barrier()
			if c.Rank() == 0 {
				gotMsgs, gotFloats = world.MessageStats()
			}
		})
		if walkMsgs == 0 {
			t.Errorf("%s: schedule walk found no messages", label)
		}
		if uint64(walkMsgs) != gotMsgs || uint64(walkFloats) != gotFloats {
			t.Errorf("%s: schedule says %d msgs / %d floats, runtime delivered %d / %d",
				label, walkMsgs, walkFloats, gotMsgs, gotFloats)
		}
	}

	g := grid.Dims{NX: 24, NY: 16, NZ: 16}
	q := cvm.SoCal(2400, 1600, 1600, 400)
	for _, topo := range []mpi.Cart{
		mpi.NewCart(2, 1, 1), mpi.NewCart(3, 1, 1), mpi.NewCart(2, 2, 1), mpi.NewCart(2, 2, 2),
	} {
		for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
			for _, depth := range []int{1, 2} {
				if depth > 1 && model == AsyncOverlap {
					continue // rejected by Prepare
				}
				opt := ttileOptions(g, 4, topo)
				opt.Comm = model
				opt.TemporalDepth = depth
				run(fmt.Sprintf("%dx%dx%d/%v/depth=%d", topo.PX, topo.PY, topo.PZ, model, depth), q, opt)
			}
		}
	}

	// Mixed-rate LTS: rates [1 1 2 4] put equal, finer and coarser
	// neighbors in one line; one Step is one 4-base-step cycle.
	rock, soft := ltsContrast()
	lg := grid.Dims{NX: 48, NY: 12, NZ: 12}
	banded := bandedXModel{
		edges: []float64{float64(lg.NX/2) * 100, float64(3*lg.NX/4) * 100},
		mats:  []cvm.Material{rock, {Vp: 2500, Vs: 1450, Rho: 2200}, soft},
	}
	opt := ltsOptions(lg, 16, mpi.NewCart(4, 1, 1))
	opt.LTS = LTSOptions{Enabled: true, MaxRateRatio: 4}
	run("lts [1 1 2 4]", banded, opt)
}

// The walked traffic follows the one-message-per-neighbor-per-phase rule
// on full and partial neighbor masks, and a super-step's deep exchange is
// one message per neighbor whatever the field count.
func TestHaloStatsCounts(t *testing.T) {
	d := grid.Dims{NX: 20, NY: 24, NZ: 16}
	all := [3][2]bool{{true, true}, {true, true}, {true, true}}
	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		if st := HaloStats(d, all, model); st.VelMsgs != 6 || st.StressMsgs != 6 || st.Msgs() != 12 {
			t.Fatalf("%v: counts %d/%d, want 6/6", model, st.VelMsgs, st.StressMsgs)
		}
	}
	mask := [3][2]bool{{true, false}, {false, false}, {false, true}}
	if st := HaloStats(d, mask, Asynchronous); st.VelMsgs != 2 || st.StressMsgs != 2 {
		t.Fatalf("partial mask counts %d/%d, want 2/2", st.VelMsgs, st.StressMsgs)
	}
	// Middle rank of a 3x1x1 line at depth 2, attenuation and free surface
	// on. Per side: 3 velocity (depth 6) + 6 stress (depth 8) + 6 memvar
	// (depth 4) sections over NY x (NZ+2) cross cells.
	line := [3][2]bool{{true, true}, {false, false}, {false, false}}
	st := TemporalHaloStats(d, line, 2, true, true)
	if want := 2 * d.NY * (d.NZ + 2) * (3*6 + 6*8 + 6*4); st.Floats != want {
		t.Errorf("deep floats: got %d want %d", st.Floats, want)
	}
	if st.Msgs() != 2 {
		t.Errorf("deep msgs: got %d want 2 (one per neighbor per super-step)", st.Msgs())
	}
}

// The communication-only benchmark must observe the schedule's counts at
// the runtime's delivery point and a non-degenerate checksum.
func TestHaloExchangeBenchCountsAndChecksum(t *testing.T) {
	r := RunHaloExchangeBench(HaloBenchConfig{
		Topo: mpi.NewCart(2, 2, 1), Local: grid.Dims{NX: 12, NY: 12, NZ: 8},
		Model: Asynchronous, Steps: 2,
	})
	// 2x2x1: every rank has exactly 2 neighbors, one message each per phase.
	if r.VelMsgs != 8 || r.StressMsgs != 8 {
		t.Fatalf("counts %g/%g, want 8/8", r.VelMsgs, r.StressMsgs)
	}
	if r.VelFloats <= 0 || r.StressFloats != 2*r.VelFloats {
		t.Fatalf("float volume %g/%g: six full stress faces must be twice three velocity faces",
			r.VelFloats, r.StressFloats)
	}
	if math.IsNaN(r.Checksum) || r.Checksum == 0 || r.SecPerStep <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
}

// Every communication model and thread count reproduces the same
// wavefield on a decomposed grid: packing reads interior cells only,
// sections are disjoint sub-slices, and unpacked ghost regions are
// disjoint, so the pool's tile schedule cannot reorder an aliasing pair.
func TestCoalescedBitIdenticalAllModels(t *testing.T) {
	q := cvm.SoCal(2400, 2400, 1600, 400)
	topo := mpi.NewCart(2, 2, 1)
	ref, err := Run(q, baseOptions(topo))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		for _, threads := range []int{1, 4} {
			opt := baseOptions(topo)
			opt.Comm = model
			opt.Threads = threads
			got, err := Run(q, opt)
			if err != nil {
				t.Fatalf("%v threads=%d: %v", model, threads, err)
			}
			expectResultsExact(t, fmt.Sprintf("%v threads=%d", model, threads), ref, got)
		}
	}
}
