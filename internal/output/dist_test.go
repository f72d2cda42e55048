package output

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// verifyStripes holds rank 0's flush-time checksums to a read-back of the
// file (other ranks return nil).
func (d *Dist) verifyStripes() error {
	if d.c.Rank() != 0 {
		return nil
	}
	return VerifyStripes(d.fsys, d.path, d.Stats.Stripes)
}

// appendFrame buffers frame idx with data as this rank's bytes of it.
func appendFrame(d *Dist, idx int, data []byte) error {
	copy(d.Frame(idx), data)
	return d.Commit()
}

func distFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 16})
}

// distWorld runs a 4-rank world in which ranks 0 and 1 each own half of
// a 64-byte frame and ranks 2..3 own nothing, appending `frames` frames
// whose content is a function of (frame, rank, byte).
func distWorld(t *testing.T, fsys *pfs.FS, path string, frames, flushEvery int,
	body func(c *mpi.Comm, d *Dist, mine []mpiio.Segment)) {
	t.Helper()
	const frameBytes = 64
	w := mpi.NewWorld(4)
	err := w.RunErr(func(c *mpi.Comm) error {
		var mine []mpiio.Segment
		if c.Rank() < 2 {
			mine = []mpiio.Segment{{Off: c.Rank() * 32, Len: 32}}
		}
		d, err := NewDist(c, fsys, path, frameBytes, mine, flushEvery, agg.Config{}, nil)
		if err != nil {
			return err
		}
		body(c, d, mine)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func framePayload(frame, rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(frame*31 + rank*7 + i)
	}
	return b
}

func TestDistFlushGroupingAndContent(t *testing.T) {
	fsys := distFS()
	const frames = 7
	var flushes, opens int
	distWorld(t, fsys, "f", frames, 3, func(c *mpi.Comm, d *Dist, mine []mpiio.Segment) {
		for f := 0; f < frames; f++ {
			if err := appendFrame(d, f, framePayload(f, c.Rank(), mpiio.TotalLen(mine))); err != nil {
				panic(err)
			}
		}
		if err := d.Flush(); err != nil { // final partial flush
			panic(err)
		}
		if err := d.verifyStripes(); err != nil {
			panic(err)
		}
		if len(d.view) != 0 || cap(d.view) < 3*len(mine) { // kept from the 3-frame flushes
			panic(fmt.Sprintf("flush view %d of %d segments kept, want 0 of %d", len(d.view), cap(d.view), 3*len(mine)))
		}
		if c.Rank() == 0 {
			flushes, opens = d.Stats.Flushes, d.Stats.Opens
		}
	})
	if flushes != 3 { // 3+3+1 frames
		t.Fatalf("flushes = %d, want 3", flushes)
	}
	if opens != 3 { // one writer per flush (default stripe count 1)
		t.Fatalf("opens = %d", opens)
	}
	raw := make([]byte, 7*64)
	if err := fsys.ReadAt("f", 0, raw); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		for rank := 0; rank < 2; rank++ {
			got := raw[f*64+rank*32 : f*64+rank*32+32]
			if !bytes.Equal(got, framePayload(f, rank, 32)) {
				t.Fatalf("frame %d rank %d content mismatch", f, rank)
			}
		}
	}
}

// TestDistRewindReplayIdentity is the rollback contract: rewinding past
// buffered frames and replaying (possibly with different flush grouping)
// yields a file bit-identical to an uninterrupted run.
func TestDistRewindReplayIdentity(t *testing.T) {
	const frames = 6
	straight := distFS()
	distWorld(t, straight, "f", frames, 4, func(c *mpi.Comm, d *Dist, mine []mpiio.Segment) {
		for f := 0; f < frames; f++ {
			if err := appendFrame(d, f, framePayload(f, c.Rank(), mpiio.TotalLen(mine))); err != nil {
				panic(err)
			}
		}
		if err := d.Flush(); err != nil {
			panic(err)
		}
	})

	replayed := distFS()
	distWorld(t, replayed, "f", frames, 4, func(c *mpi.Comm, d *Dist, mine []mpiio.Segment) {
		n := mpiio.TotalLen(mine)
		// Frames 0..4 (flushing 0..3 at the 4-frame mark), then roll back
		// to frame 2 — frame 4 is still buffered and must be dropped, 0..3
		// are already on disk and will be overwritten identically.
		for f := 0; f <= 4; f++ {
			if err := appendFrame(d, f, framePayload(f, c.Rank(), n)); err != nil {
				panic(err)
			}
		}
		d.Rewind(2)
		for f := 2; f < frames; f++ {
			if err := appendFrame(d, f, framePayload(f, c.Rank(), n)); err != nil {
				panic(err)
			}
		}
		if err := d.Flush(); err != nil {
			panic(err)
		}
		if err := d.verifyStripes(); err != nil {
			panic(err)
		}
		// Frames and Bytes describe the file: its 6 frames, each counted
		// once, though frames 2 and 3 were written twice.
		if c.Rank() == 0 && (d.Stats.Frames != frames || d.Stats.Bytes != frames*64) {
			panic(fmt.Sprintf("%d frames of %d bytes, want %d of %d", d.Stats.Frames, d.Stats.Bytes, frames, frames*64))
		}
	})

	a := make([]byte, frames*64)
	b := make([]byte, frames*64)
	if err := straight.ReadAt("f", 0, a); err != nil {
		t.Fatal(err)
	}
	if err := replayed.ReadAt("f", 0, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("replayed file differs from uninterrupted run")
	}
	if straight.Size("f") != replayed.Size("f") {
		t.Fatal("file sizes differ")
	}
}

func TestDistRejectsBadViews(t *testing.T) {
	fsys := distFS()
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		if _, err := NewDist(c, fsys, "f", 16, []mpiio.Segment{{Off: 8, Len: 16}}, 1, agg.Config{}, nil); err == nil {
			panic("segment past frame end accepted")
		}
	})
}
