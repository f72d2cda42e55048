package solver

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// One halo-exchange engine. A schedule is at most one message per face
// neighbor; a message is a list of sections — one field's block, packed
// from the sender's interior into one buffer and unpacked into the
// receiver's ghosts. The schedule is built once per Stepper from (local
// dims, neighbor ranks, field list) and executed by post and finish. The
// velocity and stress phases are two schedules whose field list carries the
// exchange axes (all three, or the §IV.A reduced stress set).
//
// A message ships only what the sender's active box covers (DESIGN.md §7,
// "The halo schedule"): a hdrWords header holding the clip, then each
// section's block cut to it. Outside the clip the sender's cells are +0 and
// so are the receiver's ghosts, which only ever took +0 there.
//
// Bit-identity across topologies and comm models holds by construction:
// packing reads cells no unpack writes, sections of one buffer are disjoint
// sub-slices, and the ghost blocks of distinct (field, axis, side) sections
// are disjoint — so the message layout cannot reorder a load/store pair that
// aliases.
//
// Each link circulates two buffers (DESIGN.md §7, "The halo schedule"): a
// message packs into its spare, lends it to the peer, and keeps the peer's
// message to it as the next spare. Face neighbors share the other two axes'
// extents and build their schedules from one field list, so the two
// directions of a link carry the same whole-face payload and each side's
// buffer fits the other's.

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

// haloEnv is what a schedule is built against: the rank's transport, its
// subgrid and its face-neighbor ranks (-1: none). The traffic accounting
// builds schedules on an env with no comm.
type haloEnv struct {
	comm *mpi.Comm
	tel  *telemetry.Recorder // nil disables the pack/send/recv/unpack spans
	d    grid.Dims
	nbr  [3][2]int
}

func newHaloEnv(c *mpi.Comm, topo mpi.Cart, d grid.Dims, tel *telemetry.Recorder) haloEnv {
	e := haloEnv{comm: c, tel: tel, d: d}
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

// hdrWords is the length of a message's header: the clip — the part of the
// message's pack block the sender's active box covers — as six int32
// offsets from the block's low corner (i0, i1, j0, j1, k0, k1), all zero
// when the box misses the block.
const hdrWords = 6

// section is one field's slot in a message.
type section struct {
	f            *grid.Field3
	pack, unpack [6]int // whole interior block sent, ghost block filled

	// In flight: this exchange's clipped blocks and their offsets in the
	// outgoing and the incoming buffer.
	sent, got       [6]int
	sentOff, gotOff int
}

type message struct {
	peer             int
	sendTag, recvTag int
	total            int // the whole faces' payload: sum of section lengths
	secs             []section
	face             fd.Box // hull of the pack blocks: the header is relative to it
	slab             fd.Box // hull of the ghost blocks the sections fill

	// buf is the spare post packs into and lends (nil from then on), and
	// from finish on the peer's message to this rank, kept as the next
	// spare.
	buf []float32
}

type schedule struct {
	haloEnv
	msgs []message
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
				}
				m.total += blockLen(sec.pack)
				m.secs = append(m.secs, sec)
				m.face = m.face.Hull(blockBox(sec.pack))
				m.slab = m.slab.Hull(blockBox(sec.unpack))
			}
			if len(m.secs) == 0 {
				continue
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

// post starts the exchange: every message's sections are cut to the rank's
// active box (whole once it has none) and packed into the message's spare
// behind the header, and the spares are lent to the runtime.
// The caller may compute between post and finish — that gap is the
// AsyncOverlap model.
func (s *schedule) post() {
	if len(s.msgs) == 0 {
		return
	}
	for i := range s.msgs {
		m := &s.msgs[i]
		clip := m.face
		if s.box != nil {
			clip = clip.Intersect(s.box.Box)
		}
		n := hdrWords
		for si := range m.secs {
			sec := &m.secs[si]
			sec.sent, sec.sentOff = clipBlock(sec.pack, clip), n
			n += blockLen(sec.sent)
		}
		// A new buffer holds whole faces, so the link's two buffers fit
		// however the clip grows. A spare too short for that is replaced,
		// never overrun: it is nil on the first post, and after fault
		// recovery (internal/ft) reuses the Stepper where an aborted
		// exchange lost the lent buffer.
		if cap(m.buf) < hdrWords+m.total {
			m.buf = make([]float32, hdrWords+m.total)
		}
		m.buf = m.buf[:n]
		putHeader(m.buf, clip, m.face)
	}
	sp := s.tel.Span(telemetry.Pack)
	for i := range s.msgs {
		m := &s.msgs[i]
		for si := range m.secs {
			if sec := &m.secs[si]; blockLen(sec.sent) > 0 {
				b := sec.sent
				sec.f.PackRange(b[0], b[1], b[2], b[3], b[4], b[5], m.buf[sec.sentOff:])
			}
		}
	}
	sp.End()
	sp = s.tel.Span(telemetry.Send)
	for i := range s.msgs {
		m := &s.msgs[i]
		// Forget the buffer before lending it: one a crash or an aborted
		// world loses is never touched again.
		out := m.buf
		m.buf = nil
		s.comm.SendOwned(m.peer, m.sendTag, out)
	}
	sp.End()
}

// finish completes the posted exchange: receive every message, check each
// header against its message, unpack the clipped sections; each received
// buffer stays as its message's next spare. A header
// that does not fit its message panics with an error naming the peer and the
// tag, which World.RunErr reports as the rank's failure.
func (s *schedule) finish() {
	if len(s.msgs) == 0 {
		return
	}
	sp := s.tel.Span(telemetry.Recv)
	for i := range s.msgs {
		m := &s.msgs[i]
		m.buf = s.comm.MustRecvTake(m.peer, m.recvTag)
	}
	sp.End()
	sp = s.tel.Span(telemetry.Unpack)
	for i := range s.msgs {
		m := &s.msgs[i]
		if err := m.takeHeader(); err != nil {
			panic(fmt.Errorf("solver: halo message from rank %d, tag %d: %w", m.peer, m.recvTag, err))
		}
	}
	if s.box != nil {
		s.box.takeHalo(s.msgs)
	}
	for i := range s.msgs {
		m := &s.msgs[i]
		for si := range m.secs {
			if sec := &m.secs[si]; blockLen(sec.got) > 0 {
				u := sec.got
				sec.f.UnpackRange(u[0], u[1], u[2], u[3], u[4], u[5], m.buf[sec.gotOff:])
			}
		}
	}
	sp.End()
}

// putHeader writes the header of a message whose pack blocks' hull is face
// and whose clip is clip into h.
func putHeader(h []float32, clip, face fd.Box) {
	rel := [hdrWords]int{}
	if !clip.Empty() {
		rel = [hdrWords]int{clip.I0 - face.I0, clip.I1 - face.I0, clip.J0 - face.J0, clip.J1 - face.J0, clip.K0 - face.K0, clip.K1 - face.K0}
	}
	for x, v := range rel {
		h[x] = math.Float32frombits(uint32(int32(v)))
	}
}

// takeHeader reads the clip off the received message and lays this
// exchange's clipped ghost blocks out behind the header, or says why the
// header does not fit the message's ghost blocks or its length.
func (m *message) takeHeader() error {
	if len(m.buf) < hdrWords {
		return fmt.Errorf("%d words, shorter than the %d-word header", len(m.buf), hdrWords)
	}
	var rel [hdrWords]int
	var clip fd.Box
	for x := range rel {
		rel[x] = int(int32(math.Float32bits(m.buf[x])))
	}
	if rel != [hdrWords]int{} {
		s := m.slab
		ext := [3]int{s.I1 - s.I0, s.J1 - s.J0, s.K1 - s.K0}
		for ax, n := range ext {
			if lo, hi := rel[2*ax], rel[2*ax+1]; lo < 0 || lo >= hi || hi > n {
				return fmt.Errorf("header %v does not fit the %dx%dx%d ghost block", rel, ext[0], ext[1], ext[2])
			}
		}
		clip = fd.Box{I0: s.I0 + rel[0], I1: s.I0 + rel[1], J0: s.J0 + rel[2], J1: s.J0 + rel[3], K0: s.K0 + rel[4], K1: s.K0 + rel[5]}
	}
	n := hdrWords
	for si := range m.secs {
		sec := &m.secs[si]
		sec.got, sec.gotOff = clipBlock(sec.unpack, clip), n
		n += blockLen(sec.got)
	}
	if n != len(m.buf) {
		return fmt.Errorf("header %v makes %d words, the message has %d", rel, n, len(m.buf))
	}
	return nil
}

// blockBox returns the block [i0,i1)x[j0,j1)x[k0,k1) as a box.
func blockBox(b [6]int) fd.Box {
	return fd.Box{I0: b[0], I1: b[1], J0: b[2], J1: b[3], K0: b[4], K1: b[5]}
}

// clipBlock returns the part of block b inside c, the zero block when there
// is none.
func clipBlock(b [6]int, c fd.Box) [6]int {
	x := blockBox(b).Intersect(c)
	if x.Empty() {
		return [6]int{}
	}
	return [6]int{x.I0, x.I1, x.J0, x.J1, x.K0, x.K1}
}

// blockLen returns the number of values in block b.
func blockLen(b [6]int) int { return grid.RangeLen(b[0], b[1], b[2], b[3], b[4], b[5]) }
