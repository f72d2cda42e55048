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

// checkTags fails when two messages of one schedule would be
// indistinguishable to a peer: same peer and same tag, in either direction.
func checkTags(t *testing.T, label string, s *schedule) {
	t.Helper()
	seen := map[[3]int]bool{}
	for _, m := range s.msgs {
		for dir, tag := range [2]int{m.sendTag, m.recvTag} {
			k := [3]int{m.peer, dir, tag}
			if seen[k] {
				t.Errorf("%s: two messages with peer %d share tag %d", label, m.peer, tag)
			}
			seen[k] = true
		}
	}
}

// The schedule agrees with its own execution: on every rank, the messages
// and floats obtained by walking the schedules the Stepper built equal
// what the runtime counts at its delivery point over one real Step, and no
// schedule reuses a tag toward one peer.
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
			checkTags(t, label, rs.vel)
			checkTags(t, label, rs.stress)
			msgs, floats := rs.vel.traffic()
			m, f := rs.stress.traffic()
			msgs, floats = msgs+m, floats+f
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
			opt := twoSidedOptions(g, 4, topo)
			opt.Comm = model
			run(fmt.Sprintf("%dx%dx%d/%v", topo.PX, topo.PY, topo.PZ, model), q, opt)
		}
	}
}

// traffic walks the schedule and returns what one execution sends: messages
// and float32 values.
func (s *schedule) traffic() (msgs, floats int) {
	for mi := range s.msgs {
		floats += s.msgs[mi].total
	}
	return len(s.msgs), floats
}

// MessageStats describes one rank's halo traffic: the float32 volume and
// the message counts per phase — the quantity the extended performance
// model (perfmodel, Eq. 7/8 with the α·nmsgs term) prices.
type MessageStats struct {
	Floats     int // float32 values sent (both phases)
	VelMsgs    int // messages sent in the velocity phase
	StressMsgs int // messages sent in the stress phase
}

// statsEnv is the transport-less env the traffic accounting builds its
// schedules on — the same builders the Stepper uses, over nil fields, with
// placeholder peers on the faces that have a neighbor.
func statsEnv(d grid.Dims, nbrMask [3][2]bool) haloEnv {
	e := haloEnv{d: d}
	for ax := range e.nbr {
		for sd := range e.nbr[ax] {
			if !nbrMask[ax][sd] {
				e.nbr[ax][sd] = -1
			}
		}
	}
	return e
}

// HaloStats returns the per-step halo traffic of a rank with the given
// subgrid under the model, read off the velocity and stress schedules a
// Stepper of that shape executes.
func HaloStats(d grid.Dims, nbrMask [3][2]bool, model CommModel) MessageStats {
	env := statsEnv(d, nbrMask)
	var st MessageStats
	var vf, sf int
	st.VelMsgs, vf = classicSchedule(env, phaseVelocity, model, make([]*grid.Field3, 3)).traffic()
	st.StressMsgs, sf = classicSchedule(env, phaseStress, model, make([]*grid.Field3, 6)).traffic()
	st.Floats = vf + sf
	return st
}

// The walked traffic follows the one-message-per-neighbor-per-phase rule
// on full and partial neighbor masks.
func TestHaloStatsCounts(t *testing.T) {
	d := grid.Dims{NX: 20, NY: 24, NZ: 16}
	all := [3][2]bool{{true, true}, {true, true}, {true, true}}
	for _, model := range []CommModel{Synchronous, Asynchronous, AsyncReduced, AsyncOverlap} {
		if st := HaloStats(d, all, model); st.VelMsgs != 6 || st.StressMsgs != 6 {
			t.Fatalf("%v: counts %d/%d, want 6/6", model, st.VelMsgs, st.StressMsgs)
		}
	}
	mask := [3][2]bool{{true, false}, {false, false}, {false, true}}
	if st := HaloStats(d, mask, Asynchronous); st.VelMsgs != 2 || st.StressMsgs != 2 {
		t.Fatalf("partial mask counts %d/%d, want 2/2", st.VelMsgs, st.StressMsgs)
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
