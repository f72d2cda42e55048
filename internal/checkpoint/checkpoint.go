// Package checkpoint implements application-level checkpoint/restart
// (§III.F): each rank periodically writes its restart state — the named
// sections its owners hand over (grid.Section) — to its own file on the
// simulated parallel file system. Restart reproduces the uninterrupted run
// bit-for-bit.
package checkpoint

import (
	"fmt"
	"slices"

	"repro/internal/core/attenuation"
	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// FileName is the per-rank checkpoint naming scheme.
func FileName(dir string, rank, step int) string {
	return fmt.Sprintf("%s/ckpt.%06d.step%09d", dir, rank, step)
}

// Write saves one rank's sections at step as a v4 file, written under a temp
// name and renamed, so a concurrent scan never sees half a file. Transient PFS
// faults are retried with bounded backoff; a torn write that slips through
// fails the CRC in Read and FindLatestValid. An optional telemetry recorder
// (at most one) times it as the Checkpoint phase.
func Write(fsys *pfs.FS, dir string, rank, step int, secs []grid.Section, rec ...*telemetry.Recorder) (pfs.PhaseStats, error) {
	defer ckptSpan(rec).End()
	data := encode(step, secs)
	path := FileName(dir, rank, step)
	tmp := path + ".tmp"
	retry := pfs.DefaultRetry()
	if err := retry.Do(func() error { return fsys.WriteAt(tmp, 0, data) }); err != nil {
		return pfs.PhaseStats{}, fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err := retry.Do(func() error { return fsys.Rename(tmp, path) }); err != nil {
		return pfs.PhaseStats{}, fmt.Errorf("checkpoint: commit %s: %w", path, err)
	}
	return fsys.SimulatePhase([]pfs.Op{{Path: path, Bytes: len(data), Write: true, Open: true}}), nil
}

// Read restores one rank's sections saved at step, in place, from a file
// whose section table is the one secs describe: names, kinds and counts, in
// order. An optional telemetry recorder (at most one) times it as the
// Checkpoint phase.
func Read(fsys *pfs.FS, dir string, rank, step int, secs []grid.Section, rec ...*telemetry.Recorder) error {
	defer ckptSpan(rec).End()
	path := FileName(dir, rank, step)
	sz := fsys.Size(path)
	if sz < 0 {
		return fmt.Errorf("checkpoint: %s not found", path)
	}
	raw := make([]byte, sz)
	if err := fsys.ReadAt(path, 0, raw); err != nil {
		return err
	}
	got, tab, vals, err := decode(raw)
	switch {
	case err != nil:
		return fmt.Errorf("checkpoint: %s: %w", path, err)
	case got != int64(step):
		return fmt.Errorf("checkpoint: %s holds step %d", path, got)
	case !slices.Equal(tab, tableOf(secs)):
		return fmt.Errorf("checkpoint: %s: %s: %w", path, tableDiff(tab, tableOf(secs)), ErrTable)
	}
	fill(secs, vals)
	return nil
}

// tableDiff describes the first entry where a file's section table differs
// from the rank's, which it does.
func tableDiff(file, rank []entry) string {
	for i := range min(len(file), len(rank)) {
		f, r := file[i], rank[i]
		switch {
		case f.name != r.name:
			return fmt.Sprintf("section %d is %q, the rank's is %q", i, f.name, r.name)
		case f.kind != r.kind:
			return fmt.Sprintf("section %q holds %d-byte values, the rank's %d-byte", f.name, f.kind, r.kind)
		case f.count != r.count:
			return fmt.Sprintf("section %q holds %d values, the rank's %d", f.name, f.count, r.count)
		}
	}
	if len(file) > len(rank) {
		return fmt.Sprintf("%d sections, the rank's %d: %q is not the rank's", len(file), len(rank), file[len(rank)].name)
	}
	return fmt.Sprintf("%d sections, the rank's %d: %q is missing", len(file), len(rank), rank[len(file)].name)
}

// Save writes one rank's wavefield and, when atten is not nil, its memory
// variables at step: Write of their sections.
func Save(fsys *pfs.FS, dir string, rank, step int, s *fd.State, atten *attenuation.Model, rec ...*telemetry.Recorder) (pfs.PhaseStats, error) {
	return Write(fsys, dir, rank, step, stateSections(s, atten), rec...)
}

// Load restores what Save wrote into s and atten: Read of their sections.
func Load(fsys *pfs.FS, dir string, rank, step int, s *fd.State, atten *attenuation.Model, rec ...*telemetry.Recorder) error {
	return Read(fsys, dir, rank, step, stateSections(s, atten), rec...)
}

func stateSections(s *fd.State, atten *attenuation.Model) []grid.Section {
	if atten == nil {
		return s.Sections()
	}
	return append(s.Sections(), atten.Sections()...)
}

// FindLatestValid scans dir for per-rank checkpoint files and returns
// the newest coordinated step: the largest step for which every rank in
// [0, nranks) has a checkpoint whose CRC64 verifies and whose header
// step matches its filename. Truncated, torn, bit-flipped, older-format,
// and in-flight .tmp files are skipped. Returns -1 when no coordinated
// step exists.
func FindLatestValid(fsys *pfs.FS, dir string, nranks int) int {
	valid := map[int]int{} // step -> ranks with a valid file (one name a rank)
	prefix := dir + "/"
	for _, path := range fsys.List() {
		if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
			continue
		}
		var rank, step int
		if n, err := fmt.Sscanf(path[len(prefix):], "ckpt.%d.step%d", &rank, &step); n != 2 || err != nil {
			continue
		}
		if path != FileName(dir, rank, step) { // excludes .tmp files
			continue
		}
		if rank < 0 || rank >= nranks {
			continue
		}
		raw := make([]byte, fsys.Size(path))
		if err := fsys.ReadAt(path, 0, raw); err != nil {
			continue
		}
		if got, _, _, err := decode(raw); err == nil && got == int64(step) {
			valid[step]++
		}
	}
	best := -1
	for step, ranks := range valid {
		if ranks == nranks && step > best {
			best = step
		}
	}
	return best
}

// ckptSpan opens a Checkpoint span on the first recorder, if any; a nil
// recorder (or none) yields the no-op span.
func ckptSpan(rec []*telemetry.Recorder) telemetry.Span {
	if len(rec) == 0 {
		return telemetry.Span{}
	}
	return rec[0].Span(telemetry.Checkpoint)
}
