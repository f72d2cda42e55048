package output

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// Dist is the distributed successor of Aggregator: a frame-indexed
// single-file velocity-output writer in which every rank buffers its own
// sub-rectangle of each output frame and the buffered frames are flushed
// collectively through the internal/agg two-phase aggregator — a few
// large stripe-aligned writer streams and ≤ throttle concurrent opens,
// instead of one open per rank per flush (§III.E + §IV.E combined).
//
// Frames are offset-addressed (frame f occupies bytes
// [f·FrameBytes, (f+1)·FrameBytes)), so re-appending a frame after a
// rollback overwrites identical bytes and the final file is bit-identical
// to an uninterrupted run.
type Dist struct {
	c          *mpi.Comm
	fsys       *pfs.FS
	path       string
	frameBytes int             // global bytes per frame
	segs       []mpiio.Segment // this rank's in-frame view (may be empty)
	flushEvery int
	cfg        agg.Config
	tel        *telemetry.Recorder

	// The buffered frames: their indices, increasing, and their bytes, this
	// rank's view of each in turn.
	frames []int
	buf    []byte
	// view is the flush's file view, a segment of each buffered frame for
	// each of segs; it is empty between flushes and keeps its array.
	view []mpiio.Segment
	// counted is one past the highest frame whose bytes Stats.Bytes holds:
	// a replayed frame below it is on disk and counted already.
	counted int

	// Stats accumulates over flushes; scalar fields agree on every rank,
	// Stripes is maintained on rank 0 only: after each flush it hashes the
	// stripes the flush covered as they stand on the FS, so the latest
	// hash of each stripe is the final file's.
	Stats DistStats
}

// DistStats is the accumulated outcome of a Dist writer.
type DistStats struct {
	Frames             int // frames the file holds: one past the highest appended, less those rewound
	Flushes            int // collective writes issued, replays included
	Bytes              int // payload bytes of the file's frames, summed over ranks; a replayed frame counts once
	Opens              int // file opens charged, replays included
	MaxConcurrentOpens int
	Phase              pfs.PhaseStats // summed virtual cost of all flush phases
	Stripes            map[int]agg.StripeChecksum
}

// NewDist creates a distributed writer on communicator c. frameBytes is
// the global frame size; segs is this rank's view within one frame
// (offsets relative to the frame start; empty on ranks that own no
// output points). flushEvery <= 0 flushes every frame (the pathological
// unaggregated mode). All ranks must construct with identical
// frameBytes/flushEvery and collectively cover each frame at most once.
func NewDist(c *mpi.Comm, fsys *pfs.FS, path string, frameBytes int,
	segs []mpiio.Segment, flushEvery int, cfg agg.Config, tel *telemetry.Recorder) (*Dist, error) {
	if frameBytes <= 0 {
		return nil, fmt.Errorf("output: frame size %d", frameBytes)
	}
	if flushEvery <= 0 {
		flushEvery = 1
	}
	for _, s := range segs {
		if s.Off < 0 || s.Off+s.Len > frameBytes {
			return nil, fmt.Errorf("output: segment [%d,%d) outside frame of %d bytes", s.Off, s.Off+s.Len, frameBytes)
		}
	}
	return &Dist{
		c: c, fsys: fsys, path: path, frameBytes: frameBytes,
		segs:       append([]mpiio.Segment(nil), segs...),
		flushEvery: flushEvery, cfg: cfg, tel: tel,
		Stats: DistStats{Stripes: map[int]agg.StripeChecksum{}},
	}, nil
}

// Frame buffers frame idx, whose index must exceed every buffered one's, and
// returns this rank's slot of it — view-length bytes, none on a rank that
// owns no output points — to fill before Commit. Local.
func (d *Dist) Frame(idx int) []byte {
	d.frames = append(d.frames, idx)
	n, view := len(d.buf), mpiio.TotalLen(d.segs)
	d.buf = slices.Grow(d.buf, view)[:n+view]
	d.Stats.Frames = max(d.Stats.Frames, idx+1)
	return d.buf[n:]
}

// Commit ends the frame Frame returned: once flushEvery frames are buffered
// it flushes them. Collective: every rank must buffer the same frame
// sequence, so they flush together.
func (d *Dist) Commit() error {
	if len(d.frames) >= d.flushEvery {
		return d.Flush()
	}
	return nil
}

// Rewind drops buffered (unflushed) frames with index >= idx — the
// rollback half of coordinated recovery. Flushed frames need no undo:
// replaying them overwrites identical bytes, which Stats.Bytes does not
// count again. Local, not collective; it leaves idx frames counted.
func (d *Dist) Rewind(idx int) {
	n, _ := slices.BinarySearch(d.frames, idx)
	d.frames, d.buf = d.frames[:n], d.buf[:n*mpiio.TotalLen(d.segs)]
	d.Stats.Frames = min(d.Stats.Frames, idx)
}

// Flush writes all buffered frames in one collective aggregated write,
// then rank 0 hashes the stripes the flushed frames span into
// Stats.Stripes; a hash read that fails past its retries is rank 0's error
// alone. Collective even when this rank's buffer holds no bytes. No-ops (on
// every rank, by the collective-append contract) when no frames are
// buffered anywhere.
func (d *Dist) Flush() error {
	n := len(d.frames)
	if n == 0 {
		return nil
	}
	for _, f := range d.frames {
		for _, s := range d.segs {
			d.view = append(d.view, mpiio.Segment{Off: f*d.frameBytes + s.Off, Len: s.Len})
		}
	}
	// The frames the flush spans, and those not on disk before it.
	lo, hi := d.frames[0], d.frames[n-1]+1
	onDisk, _ := slices.BinarySearch(d.frames, d.counted)
	fresh, counted := n-onDisk, max(d.counted, hi)
	st, err := agg.WriteIndexed(d.c, d.fsys, d.path, d.view, d.buf, d.cfg, d.tel)
	d.frames, d.buf, d.view = d.frames[:0], d.buf[:0], d.view[:0]
	if err != nil {
		return err
	}
	d.Stats.Flushes++
	// Every frame carries the same bytes across the ranks, so the fresh
	// frames' share of the write is exact.
	d.Stats.Bytes += st.Bytes / n * fresh
	d.counted = counted
	d.Stats.Opens += st.Opens
	if st.MaxConcurrentOpens > d.Stats.MaxConcurrentOpens {
		d.Stats.MaxConcurrentOpens = st.MaxConcurrentOpens
	}
	d.Stats.Phase.Elapsed += st.Phase.Elapsed
	d.Stats.Phase.MDSTime += st.Phase.MDSTime
	d.Stats.Phase.IOTime += st.Phase.IOTime
	d.Stats.Phase.Bytes += st.Phase.Bytes
	if st.Phase.MaxOSTLoad > d.Stats.Phase.MaxOSTLoad {
		d.Stats.Phase.MaxOSTLoad = st.Phase.MaxOSTLoad
	}
	if d.c.Rank() == 0 {
		_, size := d.fsys.Stripe(d.path)
		sums, err := agg.StripeChecksums(d.fsys, d.path, lo*d.frameBytes/size, (hi*d.frameBytes+size-1)/size)
		if err != nil {
			return fmt.Errorf("output: %w", err)
		}
		for _, s := range sums {
			d.Stats.Stripes[s.Index] = s
		}
	}
	return nil
}

// VerifyStripes compares stripe checksums taken at flush time (rank 0's
// DistStats.Stripes) with a read-back of the whole file at path: the same
// stripes, each with the same CRC64 and MD5. A difference means a stripe
// changed after the flush that covered it was hashed.
func VerifyStripes(fsys *pfs.FS, path string, recorded map[int]agg.StripeChecksum) error {
	back, err := agg.FileStripeChecksums(fsys, path)
	if err != nil {
		return err
	}
	if len(back) != len(recorded) {
		return fmt.Errorf("output: %s: %d stripes on disk, %d recorded", path, len(back), len(recorded))
	}
	for _, b := range back {
		if w, ok := recorded[b.Index]; !ok || w != b {
			return fmt.Errorf("output: %s: stripe %d reads back %x/%s, recorded %x/%s", path, b.Index, b.CRC64, b.MD5, w.CRC64, w.MD5)
		}
	}
	return nil
}
