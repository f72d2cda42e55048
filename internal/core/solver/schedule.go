package solver

import (
	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// One halo-exchange engine. A schedule is at most one message per face
// neighbor; a message is a list of sections — one field's block, packed
// from the sender's interior at a fixed offset of one pooled buffer and
// unpacked into the receiver's ghosts. The schedule is built once per
// Stepper from (local dims, neighbor ranks, field list) and executed by
// post and finish. The velocity and stress phases are two schedules whose
// field list carries the exchange axes (all three, or the §IV.A reduced
// stress set).
//
// Bit-identity across topologies, thread counts and comm models holds by
// construction: packing reads cells no unpack writes, sections of one
// buffer are disjoint sub-slices, and the ghost blocks of distinct (field,
// axis, side) sections are disjoint — so neither the message layout nor the
// pool's tile order can reorder a load/store pair that aliases.

// Exchange phases: the phase coordinate of the tag space.
const (
	phaseVelocity = iota
	phaseStress
)

// haloTag is the one tag function, dense in (phase, axis, direction of
// travel). A cartesian neighbor lies on exactly one (axis, side), so no two
// messages of a schedule to one peer share a tag.
func haloTag(phase int, ax grid.Axis, dirHigh bool) int {
	t := (phase*3 + int(ax)) * 2
	if dirHigh {
		t++
	}
	return t
}

// haloEnv is what a schedule is built against: the rank's transport and
// worker pool, its subgrid and its face-neighbor ranks (-1: none). The
// traffic accounting builds schedules on an env with no comm.
type haloEnv struct {
	comm *mpi.Comm
	pool *sched.Pool         // nil packs serially
	tel  *telemetry.Recorder // nil disables the pack/send/recv/unpack spans
	d    grid.Dims
	nbr  [3][2]int
}

func newHaloEnv(c *mpi.Comm, topo mpi.Cart, d grid.Dims, pool *sched.Pool, tel *telemetry.Recorder) haloEnv {
	e := haloEnv{comm: c, pool: pool, tel: tel, d: d}
	for ax := 0; ax < 3; ax++ {
		e.nbr[ax][0] = topo.Neighbor(c.Rank(), ax, -1)
		e.nbr[ax][1] = topo.Neighbor(c.Rank(), ax, +1)
	}
	return e
}

// haloField is one entry of a schedule's field list.
type haloField struct {
	f     *grid.Field3 // nil when the schedule is only walked for its traffic (halo.go)
	depth int          // planes exchanged per face
	axes  [3]bool      // axes the field is exchanged along
}

// section is one field's slot in a message.
type section struct {
	f            *grid.Field3
	pack, unpack [6]int // interior block sent, ghost block filled
	off, n       int    // buf[off:off+n]
}

type message struct {
	peer             int
	sendTag, recvTag int
	total            int // buffer length: sum of section lengths
	secs             []section
	slab             fd.Box // hull of the ghost blocks the sections fill

	// In flight between post and finish.
	out []float32
	req *mpi.Request
	in  []float32
}

type schedule struct {
	haloEnv
	msgs []message
	// tiles flattens (message, section) so pack and unpack run as one tile
	// queue on the pool.
	tiles []struct{ mi, si int }
	// box, while the rank has an active box, learns in finish where the
	// ghosts stopped being zero; nil once the rank dropped it.
	box *activeBox
}

// faceBlock returns the block of a depth-df section on face (ax, sd): the
// interior planes to pack (ghost=false) or the ghost planes to fill
// (ghost=true), over the interior extent of the other two axes.
func (e *haloEnv) faceBlock(ax grid.Axis, sd grid.Side, df int, ghost bool) [6]int {
	n := [3]int{e.d.NX, e.d.NY, e.d.NZ}
	lo := [3]int{}
	hi := n
	switch {
	case !ghost && sd == grid.Low:
		lo[ax], hi[ax] = 0, df
	case !ghost && sd == grid.High:
		lo[ax], hi[ax] = n[ax]-df, n[ax]
	case ghost && sd == grid.Low:
		lo[ax], hi[ax] = -df, 0
	default:
		lo[ax], hi[ax] = n[ax], n[ax]+df
	}
	return [6]int{lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]}
}

// newSchedule lays out one message per (axis, side) neighbor, one section
// per field exchanged along that axis, in field order.
func newSchedule(env haloEnv, phase int, fields []haloField) *schedule {
	s := &schedule{haloEnv: env}
	for ax := grid.X; ax <= grid.Z; ax++ {
		for sd := grid.Low; sd <= grid.High; sd++ {
			peer := env.nbr[ax][sd]
			if peer < 0 {
				continue
			}
			// A message travelling toward the high side arrives as the
			// peer's low-side receive, and vice versa.
			m := message{
				peer:    peer,
				sendTag: haloTag(phase, ax, sd == grid.High),
				recvTag: haloTag(phase, ax, sd == grid.Low),
			}
			for _, hf := range fields {
				if !hf.axes[ax] {
					continue
				}
				sec := section{
					f:      hf.f,
					pack:   env.faceBlock(ax, sd, hf.depth, false),
					unpack: env.faceBlock(ax, sd, hf.depth, true),
					off:    m.total,
				}
				p := sec.pack
				sec.n = grid.RangeLen(p[0], p[1], p[2], p[3], p[4], p[5])
				m.total += sec.n
				m.secs = append(m.secs, sec)
				u := sec.unpack
				m.slab = m.slab.Hull(fd.Box{I0: u[0], I1: u[1], J0: u[2], J1: u[3], K0: u[4], K1: u[5]})
			}
			if len(m.secs) == 0 {
				continue
			}
			for si := range m.secs {
				s.tiles = append(s.tiles, struct{ mi, si int }{len(s.msgs), si})
			}
			s.msgs = append(s.msgs, m)
		}
	}
	return s
}

var (
	axesAll = [3]bool{true, true, true}
	// stressAxesReduced maps stress component (xx,yy,zz,xy,xz,yz) to the
	// axes it must be exchanged along (§IV.A: "we only need to update xx
	// in the x direction").
	stressAxesReduced = [6][3]bool{
		{true, false, false}, // sxx
		{false, true, false}, // syy
		{false, false, true}, // szz
		{true, true, false},  // sxy
		{true, false, true},  // sxz
		{false, true, true},  // syz
	}
)

// classicSchedule is the schedule of a per-step wavefield phase: 2-plane
// faces of the three velocities, or of the six stresses along the axes the
// comm model exchanges them.
func classicSchedule(env haloEnv, phase int, model CommModel, fields []*grid.Field3) *schedule {
	hfs := make([]haloField, len(fields))
	for i, f := range fields {
		hfs[i] = haloField{f: f, depth: grid.Ghost, axes: axesAll}
		if phase == phaseStress && (model == AsyncReduced || model == AsyncOverlap) {
			hfs[i].axes = stressAxesReduced[i]
		}
	}
	return newSchedule(env, phase, hfs)
}

// post starts the exchange: receives are posted first, every message's
// sections are packed as one tile queue into a pooled buffer, and the
// buffers are lent to the runtime. The caller may compute between post
// and finish — that gap is the AsyncOverlap model.
func (s *schedule) post() {
	if len(s.msgs) == 0 {
		return
	}
	for i := range s.msgs {
		m := &s.msgs[i]
		// Fault recovery (internal/ft) unwinds a rank out of post or
		// finish and later reuses the Stepper: every message takes a new
		// request and buffer, and whatever an aborted exchange left in
		// flight belongs to the dead exchange.
		m.req, m.out = s.comm.IrecvTake(m.peer, m.recvTag), mpi.GetBuffer(m.total)
	}
	sp := s.tel.Span(telemetry.Pack)
	s.pool.ForEachN(len(s.tiles), func(t int) {
		m := &s.msgs[s.tiles[t].mi]
		sec := &m.secs[s.tiles[t].si]
		p := sec.pack
		sec.f.PackRange(p[0], p[1], p[2], p[3], p[4], p[5], m.out[sec.off:sec.off+sec.n])
	})
	sp.End()
	sp = s.tel.Span(telemetry.Send)
	for i := range s.msgs {
		m := &s.msgs[i]
		s.comm.SendOwned(m.peer, m.sendTag, m.out)
		m.out = nil
	}
	sp.End()
}

// finish completes the posted exchange: wait for every receive, unpack all
// sections as one tile queue, recycle the buffers.
func (s *schedule) finish() {
	if len(s.msgs) == 0 {
		return
	}
	sp := s.tel.Span(telemetry.Recv)
	for i := range s.msgs {
		m := &s.msgs[i]
		m.req.Wait()
		m.in, m.req = m.req.Data(), nil
	}
	sp.End()
	sp = s.tel.Span(telemetry.Unpack)
	if s.box != nil {
		s.box.takeHalo(s.msgs)
	}
	s.pool.ForEachN(len(s.tiles), func(t int) {
		m := &s.msgs[s.tiles[t].mi]
		sec := &m.secs[s.tiles[t].si]
		u := sec.unpack
		sec.f.UnpackRange(u[0], u[1], u[2], u[3], u[4], u[5], m.in[sec.off:sec.off+sec.n])
	})
	for i := range s.msgs {
		m := &s.msgs[i]
		mpi.PutBuffer(m.in)
		m.in = nil
	}
	sp.End()
}

// exchange is post and finish with nothing in between.
func (s *schedule) exchange() {
	s.post()
	s.finish()
}
