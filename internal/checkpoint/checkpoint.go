// Package checkpoint implements application-level checkpoint/restart
// (§III.F): each rank periodically serializes its full solver state — all
// nine wavefield components including ghost cells, plus the attenuation
// memory variables — to its own file on the simulated parallel file
// system, with open throttling to protect the metadata server. Restart
// reproduces the uninterrupted run bit-for-bit.
package checkpoint

import (
	"fmt"

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

// Save writes one rank's state at the given step as a v2 checkpoint file
// (exact int64 header, CRC64 trailer) using the atomic write-temp-then-
// rename protocol: a reader concurrently scanning the directory never
// observes a half-written file under the final name. Transient PFS
// faults are retried with bounded backoff; a torn write that slips
// through is caught later by the CRC in Load/FindLatestValid. atten may
// be nil. An optional telemetry recorder (at most one) attributes the
// serialization wall time to the Checkpoint phase.
func Save(fsys *pfs.FS, dir string, rank, step int, s *fd.State, atten *attenuation.Model, rec ...*telemetry.Recorder) (pfs.PhaseStats, error) {
	defer ckptSpan(rec).End()
	var buf []float32
	for _, f := range s.Fields() {
		buf = append(buf, f.Data()...)
	}
	if atten != nil {
		for _, f := range attenFields(atten) {
			buf = append(buf, f.Data()...)
		}
	}
	data := Encode(step, s.Dims, atten != nil, buf)
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

// Load restores one rank's state saved at step. The destination state and
// attenuation model must already have the right dims. An optional
// telemetry recorder (at most one) attributes the restore wall time to the
// Checkpoint phase.
func Load(fsys *pfs.FS, dir string, rank, step int, s *fd.State, atten *attenuation.Model, rec ...*telemetry.Recorder) error {
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
	h, vals, err := Decode(raw)
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if h.Step != int64(step) {
		return fmt.Errorf("checkpoint: %s step %d, want %d", path, h.Step, step)
	}
	if h.Dims != s.Dims {
		return fmt.Errorf("checkpoint: dims %v, state has %v", h.Dims, s.Dims)
	}
	if h.HasAtten != (atten != nil) {
		return fmt.Errorf("checkpoint: attenuation presence mismatch")
	}
	p := 0
	for _, f := range s.Fields() {
		n := len(f.Data())
		if p+n > len(vals) {
			return fmt.Errorf("checkpoint: %s truncated in wavefield", path)
		}
		copy(f.Data(), vals[p:p+n])
		p += n
	}
	if atten != nil {
		for _, f := range attenFields(atten) {
			n := len(f.Data())
			if p+n > len(vals) {
				return fmt.Errorf("checkpoint: %s truncated in memory variables", path)
			}
			copy(f.Data(), vals[p:p+n])
			p += n
		}
	}
	if p != len(vals) {
		return fmt.Errorf("checkpoint: %s has %d trailing payload values", path, len(vals)-p)
	}
	return nil
}

// FindLatestValid scans dir for per-rank checkpoint files and returns
// the newest coordinated step: the largest step for which every rank in
// [0, nranks) has a checkpoint whose CRC64 verifies and whose header
// step matches its filename. Truncated, torn, bit-flipped, legacy-v1,
// and in-flight .tmp files are skipped. Returns -1 when no coordinated
// step exists.
func FindLatestValid(fsys *pfs.FS, dir string, nranks int) int {
	valid := map[int]map[int]bool{} // step -> set of ranks with a valid file
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
		h, _, err := Decode(raw)
		if err != nil || h.Step != int64(step) {
			continue
		}
		if valid[step] == nil {
			valid[step] = map[int]bool{}
		}
		valid[step][rank] = true
	}
	best := -1
	for step, ranks := range valid {
		if len(ranks) == nranks && step > best {
			best = step
		}
	}
	return best
}

func attenFields(a *attenuation.Model) []*grid.Field3 {
	return []*grid.Field3{a.ZXX, a.ZYY, a.ZZZ, a.ZXY, a.ZXZ, a.ZYZ}
}

// ckptSpan opens a Checkpoint span on the first recorder, if any; a nil
// recorder (or none) yields the no-op span.
func ckptSpan(rec []*telemetry.Recorder) telemetry.Span {
	if len(rec) == 0 {
		return telemetry.Span{}
	}
	return rec[0].Span(telemetry.Checkpoint)
}
