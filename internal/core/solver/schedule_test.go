package solver

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
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
// obtained by walking the schedules the Stepper built equal what per-rank
// telemetry recorders count over one real Step, and so do the floats once
// every box is filled — the whole faces plus a hdrWords header a message.
// While a box is live the payload behind the headers is at most the whole
// faces. No schedule reuses a tag toward one peer.
func TestScheduleMatchesExecution(t *testing.T) {
	run := func(label string, q cvm.Querier, opt Options) {
		t.Helper()
		dc, opt, err := Prepare(opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var mu sync.Mutex
		var walkMsgs, walkFloats int
		var got [2][2]uint64 // [live, filled][msgs, floats]
		world := mpi.NewWorld(opt.Topo.Size())
		world.Run(func(c *mpi.Comm) {
			st, err := NewStepper(c, q, dc, opt)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				return
			}
			rs := st
			checkTags(t, label, rs.vel)
			checkTags(t, label, rs.stress)
			msgs, floats := rs.vel.traffic()
			m, f := rs.stress.traffic()
			msgs, floats = msgs+m, floats+f
			mu.Lock()
			walkMsgs, walkFloats = walkMsgs+msgs, walkFloats+floats
			mu.Unlock()

			for pass := range got {
				if pass == 1 {
					rs.box.fill()
				}
				rec := telemetry.NewRecorder(c.Rank(), 0)
				c.SetTelemetry(rec)
				st.Step()
				mu.Lock()
				for _, nb := range rec.Neighbors() {
					got[pass][0] += uint64(nb.SentMsgs)
					got[pass][1] += uint64(nb.SentFloats)
				}
				mu.Unlock()
			}
		})
		if walkMsgs == 0 {
			t.Errorf("%s: schedule walk found no messages", label)
		}
		hdr := uint64(hdrWords * walkMsgs)
		if live := got[0]; live[0] != uint64(walkMsgs) || live[1] < hdr || live[1]-hdr > uint64(walkFloats) {
			t.Errorf("%s: live boxes: schedule says %d msgs / at most %d floats and %d header words, runtime delivered %d / %d",
				label, walkMsgs, walkFloats, hdr, live[0], live[1])
		}
		if whole := got[1]; whole[0] != uint64(walkMsgs) || whole[1] != uint64(walkFloats)+hdr {
			t.Errorf("%s: boxes filled: schedule says %d msgs / %d floats + %d header words, runtime delivered %d / %d",
				label, walkMsgs, walkFloats, hdr, whole[0], whole[1])
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

// traffic walks the schedule and returns what one execution sends at most:
// messages and the float32 values of their whole faces, headers aside.
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

// The communication-only benchmark's box is full, so it must observe
// the schedule's counts at the runtime's delivery point — whole faces behind
// a hdrWords header a message — and a non-degenerate checksum.
func TestHaloExchangeBenchCountsAndChecksum(t *testing.T) {
	r := RunHaloExchangeBench(HaloBenchConfig{
		Topo: mpi.NewCart(2, 2, 1), Local: grid.Dims{NX: 12, NY: 12, NZ: 8},
		Model: Asynchronous, Steps: 2,
	})
	// 2x2x1: every rank has exactly 2 neighbors, one message each per phase.
	if r.VelMsgs != 8 || r.StressMsgs != 8 {
		t.Fatalf("counts %g/%g, want 8/8", r.VelMsgs, r.StressMsgs)
	}
	// Each rank's faces: one x and one y neighbor, three velocities or six
	// stresses on both, and a header a message.
	st := HaloStats(grid.Dims{NX: 12, NY: 12, NZ: 8}, [3][2]bool{{true, false}, {true, false}}, Asynchronous)
	want := [2]float64{
		4 * float64(st.Floats/3+hdrWords*st.VelMsgs),
		4 * float64(2*st.Floats/3+hdrWords*st.StressMsgs),
	}
	if r.VelFloats != want[0] || r.StressFloats != want[1] {
		t.Fatalf("float volume %g/%g, want %g/%g: whole faces, three velocities and six stresses, and a %d-word header a message",
			r.VelFloats, r.StressFloats, want[0], want[1], hdrWords)
	}
	if math.IsNaN(r.Checksum) || r.Checksum == 0 || r.SecPerStep <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
}

// TestHaloShipsOnlyTheBox runs 2x2x1 with the source inside one rank. A rank
// whose box is empty ships headers alone; every message's clip only grows;
// every ghost a message leaves out of its clip holds +0, bit for bit; and
// once SetStepIndex fills the boxes the messages carry whole faces. A header
// that does not fit its message panics with an error naming the peer and
// the tag, not an index panic inside the copy.
func TestHaloShipsOnlyTheBox(t *testing.T) {
	g := grid.Dims{NX: 32, NY: 32, NZ: 16}
	opt := twoSidedOptions(g, 14, mpi.NewCart(2, 2, 1))
	opt.Sources[0] = source.PointSource{GI: 6, GJ: 7, GK: 8, M0: 1e15, Tensor: source.Explosion,
		STF: source.GaussianPulse(0.08, 0.02)}.Sample(0.002, 400)
	const fillAfter = 10 // steps taken when SetStepIndex fills the boxes
	q := cvm.SoCal(3200, 3200, 1600, 400)

	type rankLog struct {
		clips                           [2][]fd.Box // last clip sent, per schedule and message
		headerOnly, clipped, wholeAfter int
	}
	logs := make([]rankLog, 4)
	_, err := runWorld(q, opt, nil, func(c *mpi.Comm, st *Stepper) {
		rs, lg := st, &logs[c.Rank()]
		step := st.StepIndex()
		for p, s := range []*schedule{rs.vel, rs.stress} {
			if lg.clips[p] == nil {
				lg.clips[p] = make([]fd.Box, len(s.msgs))
			}
			for mi := range s.msgs {
				m := &s.msgs[mi]
				var clip fd.Box
				whole := true
				for si := range m.secs {
					sec := &m.secs[si]
					clip = clip.Hull(blockBox(sec.sent))
					whole = whole && sec.sent == sec.pack && sec.got == sec.unpack
					checkGhostsOutsideClip(t, c.Rank(), step, sec)
				}
				if prev := lg.clips[p][mi]; !clip.Contains(prev) {
					t.Errorf("rank %d step %d: clip toward rank %d shrank from %v to %v", c.Rank(), step, m.peer, prev, clip)
				}
				lg.clips[p][mi] = clip
				switch {
				case rs.box.Empty():
					if !clip.Empty() {
						t.Errorf("rank %d step %d: empty box, yet clip %v toward rank %d", c.Rank(), step, clip, m.peer)
					}
					lg.headerOnly++
				case !clip.Empty() && clip != m.face:
					lg.clipped++
				}
				if step > fillAfter {
					if !whole {
						t.Errorf("rank %d step %d: box filled, yet a message toward rank %d is clipped to %v", c.Rank(), step, m.peer, clip)
					}
					lg.wholeAfter++
				}
			}
		}
		if step == fillAfter {
			if err := st.SetStepIndex(step); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total rankLog
	for _, lg := range logs {
		total.headerOnly += lg.headerOnly
		total.clipped += lg.clipped
		total.wholeAfter += lg.wholeAfter
	}
	t.Logf("header-only %d, clipped %d, whole after the fill %d", total.headerOnly, total.clipped, total.wholeAfter)
	if total.headerOnly == 0 || total.clipped == 0 || total.wholeAfter == 0 {
		t.Errorf("the run never shipped a header alone (%d), a clipped face (%d) or whole faces after the fill (%d)",
			total.headerOnly, total.clipped, total.wholeAfter)
	}

	// Headers that do not fit, fed to rank 1's velocity receive from rank 0
	// on 2x1x1: x faces are 2 deep and 6x4 wide, three sections of 48 values.
	d := grid.Dims{NX: 5, NY: 6, NZ: 4}
	header := func(rel [hdrWords]int, payload int) []float32 {
		w := make([]float32, hdrWords+payload)
		for x, v := range rel {
			w[x] = math.Float32frombits(uint32(int32(v)))
		}
		return w
	}
	for _, tc := range []struct {
		name string
		msg  []float32
	}{
		{"overruns the block", header([hdrWords]int{0, 3, 0, 6, 0, 4}, 3*72)},
		{"negative offset", header([hdrWords]int{-1, 2, 0, 6, 0, 4}, 3*72)},
		{"one axis empty", header([hdrWords]int{0, 2, 3, 3, 0, 4}, 0)},
		{"one word short", header([hdrWords]int{0, 2, 0, 6, 0, 4}, 3*48-1)},
		{"payload behind an empty clip", header([hdrWords]int{}, 5)},
		{"shorter than a header", make([]float32, 3)},
	} {
		topo := mpi.NewCart(2, 1, 1)
		err := mpi.NewWorld(2).RunErr(func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				c.SendOwned(1, haloTag(phaseVelocity, grid.X, true), tc.msg)
				return nil
			}
			st := fd.NewState(d)
			s := classicSchedule(newHaloEnv(c, topo, d, nil), phaseVelocity, Asynchronous, st.Velocities())
			s.post()
			s.finish()
			return nil
		})
		var re *mpi.RankError
		want := fmt.Sprintf("halo message from rank 0, tag %d", haloTag(phaseVelocity, grid.X, true))
		switch {
		case !errors.As(err, &re) || re.Rank != 1 || !re.Panicked:
			t.Errorf("%s: got %v, want rank 1 to panic", tc.name, err)
		case !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "index out of range"):
			t.Errorf("%s: %v, want a panic naming %q", tc.name, err, want)
		}
	}

	// A fitting message shorter than a whole face becomes rank 1's spare:
	// 2x3x4 of the 2x6x4 faces, 72 words behind the header, no slack. The
	// whole-face exchange after it must replace that spare, not overrun it,
	// and deliver rank 0's faces into rank 1's ghosts.
	short := header([hdrWords]int{0, 2, 0, 3, 0, 4}, 3*24)
	value := func(fi, i, j, k int) float32 { return float32(1 + fi*1000 + k*100 + j*10 + i) }
	err = mpi.NewWorld(2).RunErr(func(c *mpi.Comm) error {
		st := fd.NewState(d)
		for fi, f := range st.Velocities() {
			for k := 0; k < d.NZ; k++ {
				for j := 0; j < d.NY; j++ {
					for i := 0; i < d.NX; i++ {
						f.Set(i, j, k, value(fi, i, j, k))
					}
				}
			}
		}
		s := classicSchedule(newHaloEnv(c, mpi.NewCart(2, 1, 1), d, nil), phaseVelocity, Asynchronous, st.Velocities())
		if c.Rank() == 0 {
			c.SendOwned(1, haloTag(phaseVelocity, grid.X, true), short)
			c.MustRecvTake(1, haloTag(phaseVelocity, grid.X, false))
		} else {
			s.exchange()
			if m := &s.msgs[0]; cap(m.buf) != len(short) {
				return fmt.Errorf("rank 1 kept a %d-word spare, want the %d-word short message", cap(m.buf), len(short))
			}
		}
		s.exchange()
		if c.Rank() == 0 {
			return nil
		}
		for fi, f := range st.Velocities() {
			for k := 0; k < d.NZ; k++ {
				for j := 0; j < d.NY; j++ {
					for i := -grid.Ghost; i < 0; i++ {
						if got, want := f.At(i, j, k), value(fi, d.NX+i, j, k); got != want {
							return fmt.Errorf("field %d ghost (%d,%d,%d) = %g, want %g", fi, i, j, k, got, want)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Errorf("a whole-face exchange after a short spare: %v", err)
	}
}

// TestEachLinkKeepsTwoBuffers runs 2x1x1 and holds each link — a rank's
// message to its peer and the peer's message back — to two backing arrays
// over the steps after the first: every post packs into the spare its
// message kept at the last finish (the peer receives that very array), and
// no exchange brings in a third.
func TestEachLinkKeepsTwoBuffers(t *testing.T) {
	const steps = 12
	g := grid.Dims{NX: 24, NY: 16, NZ: 12}
	opt := twoSidedOptions(g, steps, mpi.NewCart(2, 1, 1))
	q := cvm.SoCal(2400, 1600, 1200, 400)
	// spare[rank][phase][step-1]: the backing array of the one message's
	// spare after each step.
	var spare [2][2][steps]*float32
	_, err := runWorld(q, opt, nil, func(c *mpi.Comm, st *Stepper) {
		for p, s := range []*schedule{st.vel, st.stress} {
			if len(s.msgs) != 1 {
				t.Errorf("rank %d phase %d: %d messages, want 1", c.Rank(), p, len(s.msgs))
				return
			}
			spare[c.Rank()][p][st.StepIndex()-1] = unsafe.SliceData(s.msgs[0].buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range 2 {
		seen := map[*float32]bool{}
		for step := 1; step <= steps; step++ {
			for r := range 2 {
				got := spare[r][p][step-1]
				if got == nil {
					t.Fatalf("phase %d step %d: rank %d holds no spare", p, step, r)
				}
				seen[got] = true
				if step > 1 && got != spare[1-r][p][step-2] {
					t.Errorf("phase %d step %d: rank %d received %p, not the spare %p rank %d kept after step %d",
						p, step, r, got, spare[1-r][p][step-2], 1-r, step-1)
				}
			}
		}
		if len(seen) > 2 {
			t.Errorf("phase %d: the link circulated %d buffers over %d steps, want 2", p, len(seen), steps)
		}
	}
}

// checkGhostsOutsideClip fails unless every ghost of sec's block that the
// last message left out of its clip holds +0.
func checkGhostsOutsideClip(t *testing.T, rank, step int, sec *section) {
	t.Helper()
	u, got := sec.unpack, blockBox(sec.got)
	for k := u[4]; k < u[5]; k++ {
		for j := u[2]; j < u[3]; j++ {
			for i := u[0]; i < u[1]; i++ {
				c := fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1}
				if v := sec.f.At(i, j, k); !got.Contains(c) && math.Float32bits(v) != 0 {
					t.Fatalf("rank %d step %d: ghost (%d,%d,%d) outside the clip %v holds %g (%#x)",
						rank, step, i, j, k, got, v, math.Float32bits(v))
				}
			}
		}
	}
}
