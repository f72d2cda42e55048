// Package agg is the two-phase aggregated collective I/O layer of the
// paper's §IV.E I/O engineering: instead of every rank opening the shared
// output file itself (hundreds of thousands of concurrent opens — the
// MDS-degradation pathology), ranks ship their mpiio.Segment file views
// over internal/mpi to a small set of aggregator ("writer") ranks, which
// coalesce adjacent extents into large stripe-aligned writes and pay the
// only file opens of the phase. The aggregator hashes nothing: a caller
// that keeps per-stripe CRC64/MD5 checksums (output.Dist) takes them with
// StripeChecksums after the write, over the stripes it covered.
//
// Placement is striping-aware: the stripe columns of the target file
// (column c holds every stripe with index ≡ c mod stripeCount, and all
// of column c's bytes land on one OST) are divided into contiguous
// blocks, one block per writer — so each OST sees exactly one writer
// stream and a writer's extents coalesce into runs of whole stripes.
// Writer count is therefore capped at the stripe count; extra configured
// aggregators would put a second stream on some OST and are not used.
//
// A reader/writer open throttle (default 650, the Jaguar limit AWP-ODC
// shipped with) bounds how many file opens one synchronized phase may
// present to the metadata server: phases with more opens are split into
// sequential waves. ThrottledPhase exposes the same wave pricing for
// read phases (mesh partitioning, restart).
package agg

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"math"
	"sort"

	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// DefaultOpenThrottle is the concurrent-open limit AWP-ODC used on
// Jaguar (≤650 readers kept the Lustre MDS out of its degraded regime).
const DefaultOpenThrottle = 650

// shipTag is the message tag of the shipment phase, disjoint from the
// solver's halo tags (haloTag) and meshpart's rectangles (7000+). Two
// collective writes on one communicator therefore run one after the other.
const shipTag = 1 << 20

// Config tunes one collective aggregated write.
type Config struct {
	// Aggregators is the requested writer-rank count. 0 defaults to
	// min(ranks, stripe count); any value is additionally capped at the
	// stripe count (one writer stream per OST) and the rank count.
	Aggregators int
	// OpenThrottle bounds concurrent opens per pricing wave. 0 defaults
	// to DefaultOpenThrottle (650).
	OpenThrottle int
}

func (c Config) throttle() int {
	if c.OpenThrottle <= 0 {
		return DefaultOpenThrottle
	}
	return c.OpenThrottle
}

// StripeChecksum is the integrity record of one stripe-sized extent of
// the written file: CRC64-ECMA (the checkpoint-format polynomial) and
// MD5 (the paper's §III.E integrity pass).
type StripeChecksum struct {
	Index int // stripe index (byte range [Index*size, (Index+1)*size))
	CRC64 uint64
	MD5   string // hex
}

// WriteStats summarizes one collective aggregated write. Every rank
// returns identical stats.
type WriteStats struct {
	Bytes              int // payload bytes of the collective view
	Segments           int // input segments across all ranks
	Writers            int // aggregator ranks that issued writes
	Writes             int // coalesced writes issued to the PFS
	Opens              int // file opens charged (= Writers)
	Waves              int // open-throttle waves of the priced phase
	MaxConcurrentOpens int
	Phase              pfs.PhaseStats // virtual cost of the aggregated phase
}

// Placement maps file offsets to writer ranks, striping-aware.
type Placement struct {
	StripeCount int
	StripeSize  int
	Writers     int // active writer ranks (writer w is comm rank w)
}

// NewPlacement resolves the active writer count for a file with the
// given striping on a communicator of `ranks`, requesting `aggregators`
// writers (0 = as many as striping allows).
func NewPlacement(stripeCount, stripeSize, aggregators, ranks int) Placement {
	w := aggregators
	if w <= 0 || w > stripeCount {
		w = stripeCount
	}
	if w > ranks {
		w = ranks
	}
	return Placement{StripeCount: stripeCount, StripeSize: stripeSize, Writers: w}
}

// Owner returns the writer rank responsible for the byte at off: the
// owner of the stripe column the byte falls in. Columns are divided into
// contiguous blocks of ~count/Writers columns each.
func (p Placement) Owner(off int) int {
	col := (off / p.StripeSize) % p.StripeCount
	return col * p.Writers / p.StripeCount
}

// piece is one contiguous extent of a rank's view with its payload, a
// window of the caller's data.
type piece struct {
	off  int
	data []byte
}

// splitByOwner cuts a rank's view into per-writer piece lists, splitting
// segments only where stripe ownership changes. A piece grows only over an
// extent that follows it both in the file and in data, so every piece stays
// a window of data and no piece overlaps another.
func (p Placement) splitByOwner(segs []mpiio.Segment, data []byte) [][]piece {
	out := make([][]piece, p.Writers)
	ends := make([]int, p.Writers) // where in data each writer's last piece ends
	pos := 0
	for _, s := range segs {
		off, remaining := s.Off, s.Len
		for remaining > 0 {
			owner := p.Owner(off)
			// Extend while ownership is unchanged: ownership can only
			// change at stripe boundaries.
			n := p.StripeSize - off%p.StripeSize
			if n > remaining {
				n = remaining
			}
			for n < remaining {
				next := p.StripeSize
				if rest := remaining - n; next > rest {
					next = rest
				}
				if p.Owner(off+n) != owner {
					break
				}
				n += next
			}
			pl := out[owner]
			if k := len(pl) - 1; k >= 0 && pl[k].off+len(pl[k].data) == off && ends[owner] == pos {
				// Contiguous with this owner's last piece in the file and
				// in data: reslice, so the wire header stays small.
				pl[k].data = data[pos-len(pl[k].data) : pos+n]
			} else {
				out[owner] = append(pl, piece{off: off, data: data[pos : pos+n]})
			}
			pos += n
			ends[owner] = pos
			off += n
			remaining -= n
		}
	}
	return out
}

// crcTable is the CRC64-ECMA table shared with the checkpoint format.
var crcTable = crc64.MakeTable(crc64.ECMA)

// WriteIndexed is the collective two-phase aggregated write: every rank
// of c calls it with its own view (segs may be empty on ranks with no
// data; data length must equal the view length). Bytes are really
// written to fsys — bit-identical to each rank writing its own view —
// and the virtual cost of the aggregated phase is priced with the open
// throttle applied. An optional telemetry recorder (at most one)
// attributes the wall time to the Agg phase.
func WriteIndexed(c *mpi.Comm, fsys *pfs.FS, path string, segs []mpiio.Segment,
	data []byte, cfg Config, rec ...*telemetry.Recorder) (WriteStats, error) {
	if len(rec) > 0 && rec[0] != nil {
		defer rec[0].Span(telemetry.Agg).End()
	}
	if len(data) != mpiio.TotalLen(segs) {
		return WriteStats{}, fmt.Errorf("agg: data %d bytes, view %d", len(data), mpiio.TotalLen(segs))
	}

	// Collective geometry: global file extent, totals.
	maxEnd := 0
	for _, s := range segs {
		if end := s.Off + s.Len; end > maxEnd {
			maxEnd = end
		}
	}
	tot := c.Allreduce([]float64{float64(maxEnd)}, mpi.Max)
	sums := c.Allreduce([]float64{float64(len(data)), float64(len(segs))}, mpi.Sum)
	fileLen := int(tot[0])

	st := WriteStats{Bytes: int(sums[0]), Segments: int(sums[1])}
	if fileLen == 0 {
		return st, nil
	}

	count, size := fsys.Stripe(path)
	pl := NewPlacement(count, size, cfg.Aggregators, c.Size())
	st.Writers = pl.Writers

	// Phase 1: ship per-writer shipments. Every rank sends exactly one
	// message (possibly empty) to every writer, so receive counts are
	// deterministic without a handshake.
	byWriter := pl.splitByOwner(segs, data)
	for w := 0; w < pl.Writers; w++ {
		c.SendOwned(w, shipTag, encodeShipment(byWriter[w]))
	}

	// Phase 2: writers drain the shipments, coalesce, write.
	var out writerOutcome
	var writeErr error
	if c.Rank() < pl.Writers {
		var pieces []arrival
		for src := 0; src < c.Size(); src++ {
			msg, err := c.RecvTake(src, shipTag)
			if err == nil {
				pieces, err = readShipment(pieces, msg)
			}
			if err != nil {
				return WriteStats{}, fmt.Errorf("agg: shipment from rank %d: %w", src, err)
			}
		}
		out.Runs, writeErr = writeCoalesced(fsys, path, pieces)
		out.Failed = writeErr != nil
	}

	// Gather write outcomes and run lists at rank 0.
	// Every rank participates (non-writers contribute an empty outcome),
	// so a failed writer cannot deadlock the collective. Rank 0 prices the
	// aggregated phase under the open throttle — one open per writer with
	// runs — and broadcasts its stats, so every rank returns the same.
	outcomes, err := mpi.GatherValue(c, out, 0)
	failed := 0
	if c.Rank() == 0 {
		var ops []pfs.Op
		for _, o := range outcomes {
			for k, r := range o.Runs {
				ops = append(ops, pfs.Op{Path: path, Off: r.Off, Bytes: r.Len, Write: true, Open: k == 0})
				st.Opens += boolInt(k == 0)
			}
			failed += boolInt(o.Failed)
		}
		st.Writes = len(ops)
		st.Phase, st.Waves = ThrottledPhase(fsys, ops, cfg.throttle())
		st.MaxConcurrentOpens = min(st.Opens, cfg.throttle())
		failed += boolInt(err != nil)
	}
	type summary struct {
		Failed int
		Stats  WriteStats
	}
	sum, bcastErr := mpi.BcastValue(c, summary{failed, st}, 0)
	st = sum.Stats

	switch {
	case writeErr != nil:
		return st, fmt.Errorf("agg: writer rank %d: %w", c.Rank(), writeErr)
	case err != nil:
		return st, fmt.Errorf("agg: write outcomes: %w", err)
	case bcastErr != nil:
		return st, fmt.Errorf("agg: phase stats: %w", bcastErr)
	case sum.Failed > 0:
		return st, fmt.Errorf("agg: %d writer rank(s) failed the aggregated write of %s", sum.Failed, path)
	}
	return st, nil
}

// writerOutcome is what one rank reports to rank 0 after phase 2: whether
// its writes failed and the runs it wrote (empty on non-writers).
type writerOutcome struct {
	Failed bool
	Runs   []mpiio.Segment
}

// The shipment wire format: a writer's pieces back to back in one message,
// each as its offset and its length — two words apiece, the high and the low
// half of a uint64 — then its bytes four to a little-endian word, the last
// word zero-padded (mpi.PutBytes). The bytes are encoded straight into the
// message words and decoded straight into the writer's run buffer
// (mpi.GetBytes): one copy each way.
const pieceHeaderWords = 4

// encodeShipment lays a writer's pieces out as one message.
func encodeShipment(pieces []piece) []float32 {
	n := 0
	for _, pc := range pieces {
		n += pieceHeaderWords + (len(pc.data)+3)/4
	}
	w := make([]float32, n)
	at := 0
	for _, pc := range pieces {
		off, size := uint64(pc.off), uint64(len(pc.data))
		w[at] = math.Float32frombits(uint32(off >> 32))
		w[at+1] = math.Float32frombits(uint32(off))
		w[at+2] = math.Float32frombits(uint32(size >> 32))
		w[at+3] = math.Float32frombits(uint32(size))
		at += pieceHeaderWords
		at += mpi.PutBytes(w[at:], pc.data)
	}
	return w
}

// arrival is one piece as it arrived at its writer: its extent and the
// message words that hold its bytes.
type arrival struct {
	off, n int
	words  []float32
}

// readShipment decodes the piece headers of one shipment message and
// appends its pieces, whose words alias the message, to pieces. A piece of
// no bytes is dropped: it writes nothing.
func readShipment(pieces []arrival, msg []float32) ([]arrival, error) {
	u64 := func(w []float32) uint64 {
		return uint64(math.Float32bits(w[0]))<<32 | uint64(math.Float32bits(w[1]))
	}
	for len(msg) > 0 {
		if len(msg) < pieceHeaderWords {
			return pieces, fmt.Errorf("agg: shipment ends in a %d-word piece header", len(msg))
		}
		off, n := u64(msg), u64(msg[2:])
		msg = msg[pieceHeaderWords:]
		if off > math.MaxInt || n > 4*uint64(len(msg)) {
			return pieces, fmt.Errorf("agg: shipment piece [%d,+%d) with %d words left", off, n, len(msg))
		}
		nw := (int(n) + 3) / 4
		if n > 0 {
			pieces = append(pieces, arrival{off: int(off), n: int(n), words: msg[:nw:nw]})
		}
		msg = msg[nw:]
	}
	return pieces, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeCoalesced merges pieces into maximal contiguous runs and writes
// each run with bounded retry, returning the run extents. Each run's bytes
// are decoded from the pieces' words into a buffer sized to the run, reused
// by the runs after it that fit.
func writeCoalesced(fsys *pfs.FS, path string, pieces []arrival) ([]mpiio.Segment, error) {
	sort.Slice(pieces, func(a, b int) bool { return pieces[a].off < pieces[b].off })
	var runs []mpiio.Segment
	var buf []byte
	retry := pfs.DefaultRetry()
	for lo := 0; lo < len(pieces); {
		// The run is pieces[lo:hi], each starting where the one before ends.
		off, end, hi := pieces[lo].off, pieces[lo].off+pieces[lo].n, lo+1
		for ; hi < len(pieces) && pieces[hi].off == end; hi++ {
			end += pieces[hi].n
		}
		if hi < len(pieces) && pieces[hi].off < end {
			return runs, fmt.Errorf("agg: overlapping extents at offset %d (run end %d)", pieces[hi].off, end)
		}
		if cap(buf) < end-off {
			buf = make([]byte, end-off)
		}
		chunk := buf[:end-off]
		at := 0
		for _, pc := range pieces[lo:hi] {
			mpi.GetBytes(chunk[at:at+pc.n], pc.words)
			at += pc.n
		}
		if err := retry.Do(func() error { return fsys.WriteAt(path, off, chunk) }); err != nil {
			return runs, fmt.Errorf("agg: write %s run [%d,%d): %w", path, off, end, err)
		}
		runs = append(runs, mpiio.Segment{Off: off, Len: end - off})
		lo = hi
	}
	return runs, nil
}

// StripeChecksums hashes stripes [s0, s1) of the file at path as it
// stands, the last one cut at EOF and stripes past EOF left out, each read
// in place (pfs.View) with bounded retry. It is the one hash of a stripe:
// output.Dist takes it over the stripes a flush covered, and
// FileStripeChecksums over the whole file, so a stripe that changed after
// its flush shows as a difference between the two.
func StripeChecksums(fsys *pfs.FS, path string, s0, s1 int) ([]StripeChecksum, error) {
	n := fsys.Size(path)
	if n < 0 {
		return nil, fmt.Errorf("agg: %s: no such file", path)
	}
	_, size := fsys.Stripe(path)
	s1 = min(s1, (n+size-1)/size)
	out := make([]StripeChecksum, 0, max(0, s1-s0))
	retry := pfs.DefaultRetry()
	for s := s0; s < s1; s++ {
		lo := s * size
		sum := StripeChecksum{Index: s}
		err := retry.Do(func() error {
			return fsys.View(path, lo, min(size, n-lo), func(b []byte) {
				md := md5.Sum(b)
				sum.CRC64, sum.MD5 = crc64.Checksum(b, crcTable), hex.EncodeToString(md[:])
			})
		})
		if err != nil {
			return nil, fmt.Errorf("agg: checksum stripe %d of %s: %w", s, path, err)
		}
		out = append(out, sum)
	}
	return out, nil
}

// FileStripeChecksums computes the per-stripe checksums of an entire
// existing file (stripe geometry from the FS) — the reference side of
// the aggregated-vs-per-rank verification gate.
func FileStripeChecksums(fsys *pfs.FS, path string) ([]StripeChecksum, error) {
	return StripeChecksums(fsys, path, 0, math.MaxInt)
}

// ThrottledPhase prices a synchronized I/O phase under a concurrent-open
// throttle: the per-open streams (an Open op plus its following
// non-open ops) are issued in sequential waves of at most `throttle`
// opens, and the wave costs add. It returns the summed stats and the
// wave count. throttle <= 0 means DefaultOpenThrottle.
func ThrottledPhase(fsys *pfs.FS, ops []pfs.Op, throttle int) (pfs.PhaseStats, int) {
	if throttle <= 0 {
		throttle = DefaultOpenThrottle
	}
	if len(ops) == 0 {
		return pfs.PhaseStats{}, 0
	}
	var total pfs.PhaseStats
	waves := 0
	var wave []pfs.Op
	opens := 0
	flush := func() {
		if len(wave) == 0 {
			return
		}
		st := fsys.SimulatePhase(wave)
		total.Elapsed += st.Elapsed
		total.MDSTime += st.MDSTime
		total.IOTime += st.IOTime
		total.Bytes += st.Bytes
		if st.MaxOSTLoad > total.MaxOSTLoad {
			total.MaxOSTLoad = st.MaxOSTLoad
		}
		waves++
		wave = wave[:0]
		opens = 0
	}
	for _, op := range ops {
		if op.Open {
			if opens == throttle {
				flush()
			}
			opens++
		}
		wave = append(wave, op)
	}
	flush()
	if total.Elapsed > 0 {
		total.Throughput = float64(total.Bytes) / total.Elapsed
	}
	return total, waves
}
