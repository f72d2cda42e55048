// Package pfs simulates a parallel file system (Lustre/GPFS-like) — the
// substrate for the paper's I/O engineering (§III.C, §IV.E). Files hold
// real bytes in memory; every operation also accrues *virtual* cost from a
// performance model with object storage targets (OSTs), striping, and a
// metadata server (MDS) whose service degrades under excessive concurrent
// opens — the failure mode that motivated AWP-ODC's reader throttling
// (limit ~650 concurrent opens on Jaguar) and I/O aggregation.
package pfs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Config sets the performance model.
type Config struct {
	OSTs          int     // object storage targets (670 on Jaguar)
	OSTBandwidth  float64 // bytes/s per OST
	MDSLatency    float64 // seconds per metadata op at low load
	MDSConcurrent int     // opens the MDS sustains before degrading
}

// Jaguar returns the model parameters of the NCCS Jaguar Lustre system:
// 670 OSTs, ~32 MB/s effective per-OST stream bandwidth (20 GB/s in
// aggregate), and an MDS comfortable up to ~650 concurrent opens.
func Jaguar() Config {
	return Config{OSTs: 670, OSTBandwidth: 32e6, MDSLatency: 1e-3, MDSConcurrent: 650}
}

// FS is the simulated file system.
type FS struct {
	mu    sync.Mutex
	cfg   Config
	files map[string]*file
	// Default striping for newly created files.
	defStripeCount int
	defStripeSize  int
	// Directory-level stripe settings (longest-prefix match), the
	// `lfs setstripe` emulation.
	dirStripes map[string][2]int
	// reserved holds the capacity Reserve set aside for files not yet
	// created; create takes it.
	reserved map[string]int
	// faults, when non-nil, injects transient I/O failures (faults.go).
	faults *faultEngine
}

type file struct {
	data        []byte
	stripeCount int
	stripeSize  int
	ostBase     int
}

// New creates an empty file system.
func New(cfg Config) *FS {
	if cfg.OSTs <= 0 || cfg.OSTBandwidth <= 0 {
		panic(fmt.Sprintf("pfs: invalid config %+v", cfg))
	}
	if cfg.MDSConcurrent <= 0 {
		cfg.MDSConcurrent = 1
	}
	return &FS{
		cfg:            cfg,
		files:          map[string]*file{},
		defStripeCount: 1,
		defStripeSize:  1 << 20,
		dirStripes:     map[string][2]int{},
		reserved:       map[string]int{},
	}
}

// SetStripe sets the striping for files subsequently created under the
// directory prefix (the lfs setstripe analogue). count is clamped to the
// number of OSTs; count <= 0 means "all OSTs".
func (fs *FS) SetStripe(dirPrefix string, count, size int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if count <= 0 || count > fs.cfg.OSTs {
		count = fs.cfg.OSTs
	}
	if size <= 0 {
		size = 1 << 20
	}
	fs.dirStripes[dirPrefix] = [2]int{count, size}
}

// stripeFor resolves striping for a new file path by longest-prefix
// match. Resolution is deterministic: the longest matching prefix wins,
// and equal-length matches tie-break to the lexicographically smallest
// prefix (never map iteration order).
func (fs *FS) stripeFor(path string) (count, size int) {
	best := ""
	found := false
	count, size = fs.defStripeCount, fs.defStripeSize
	for prefix, cs := range fs.dirStripes {
		if len(prefix) > len(path) || path[:len(prefix)] != prefix {
			continue
		}
		if !found || len(prefix) > len(best) || (len(prefix) == len(best) && prefix < best) {
			best = prefix
			found = true
			count, size = cs[0], cs[1]
		}
	}
	return
}

// Stripe reports the striping geometry of the file at path, or — for a
// path with no file yet — the geometry a file created there would get.
// The aggregation layer uses it to place one writer per stripe-aligned
// file extent.
func (fs *FS) Stripe(path string) (count, size int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[path]; f != nil {
		return f.stripeCount, f.stripeSize
	}
	return fs.stripeFor(path)
}

// create makes the file if absent (caller holds the lock).
func (fs *FS) create(path string) *file {
	f := fs.files[path]
	if f == nil {
		count, size := fs.stripeFor(path)
		f = &file{stripeCount: count, stripeSize: size, ostBase: hashPath(path) % fs.cfg.OSTs}
		if n := fs.reserved[path]; n > 0 {
			f.data = make([]byte, 0, n)
			delete(fs.reserved, path)
		}
		fs.files[path] = f
	}
	return f
}

// Reserve sets aside capacity for n bytes of the file at path, as
// MPI_File_preallocate does, so a file written a chunk at a time up to n
// bytes is allocated once instead of regrown. It creates nothing: Size and
// Exists do not change, and the first write still creates the file and
// draws its create fault. A file that exists keeps its bytes and grows its
// capacity to n.
func (fs *FS) Reserve(path string, n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[path]; f != nil {
		if n > len(f.data) {
			f.data = slices.Grow(f.data, n-len(f.data))
		}
		return
	}
	fs.reserved[path] = n
}

func hashPath(p string) int {
	h := 2166136261
	for i := 0; i < len(p); i++ {
		h = (h ^ int(p[i])) * 16777619 & 0x7fffffff
	}
	return h
}

// WriteAt stores data at offset, growing the file as needed. With a
// FaultPlan armed it may fail transiently (nothing or only a prefix
// persisted — retryable via RetryPolicy) or tear silently (prefix
// persisted, nil returned — only end-to-end checksums catch that).
// Without a plan it always succeeds.
func (fs *FS) WriteAt(path string, off int, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fe := fs.faults; fe != nil {
		c, p := fe.begin("write", path, off), fe.plan
		if fs.files[path] == nil && c.u(siteCreate) < p.MDSTimeoutProb {
			c.end(true)
			fe.stats.MDSTimeouts++
			return &TransientError{Op: "create", Path: path}
		}
		u, n := c.u(siteOp), len(data)
		if n > 1 {
			n = 1 + int(c.u(siteLen)*float64(n-1))
		}
		switch {
		case u < p.WriteFailProb:
			c.end(true)
			fe.stats.FailedWrites++
			return &TransientError{Op: "write", Path: path}
		case len(data) > 1 && u < p.WriteFailProb+p.ShortWriteProb:
			c.end(true)
			fe.stats.ShortWrites++
			fs.writeLocked(path, off, data[:n])
			return &TransientError{Op: "write", Path: path}
		case len(data) > 1 && u < p.WriteFailProb+p.ShortWriteProb+p.TornWriteProb:
			// A torn write reports success, so it ends a run of faults.
			fe.stats.TornWrites++
			data = data[:n]
		}
		c.end(false)
	}
	fs.writeLocked(path, off, data)
	return nil
}

// writeLocked persists data at offset; caller holds the lock. A write past
// EOF extends the file within its capacity, which grows as append's does, so
// a file written a chunk at a time is copied O(log n) times, not once a chunk
// (none, up to the capacity Reserve set aside);
// the gap between the old EOF and off reads as zeros. A slice readLocked
// handed out before stays as it was: it ends at or before the old EOF, and
// its capacity with it.
func (fs *FS) writeLocked(path string, off int, data []byte) {
	f := fs.create(path)
	if need, old := off+len(data), len(f.data); need > old {
		f.data = slices.Grow(f.data, need-old)[:need]
		clear(f.data[old:max(old, off)])
	}
	copy(f.data[off:], data)
}

// Rename atomically replaces newPath with oldPath's file — the metadata
// operation behind the checkpoint writer's write-temp-then-rename
// protocol. A reader never observes a half-written file at newPath: it
// sees the old content (or nothing) until the rename commits. With a
// FaultPlan armed, the MDS may time out with no side effect (retryable).
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[oldPath]
	if f == nil {
		return fmt.Errorf("pfs: rename %s: no such file", oldPath)
	}
	if fe := fs.faults; fe != nil {
		if c := fe.begin("rename", oldPath, 0); c.end(c.u(siteOp) < fe.plan.MDSTimeoutProb) {
			fe.stats.MDSTimeouts++
			return &TransientError{Op: "rename", Path: oldPath}
		}
	}
	delete(fs.files, oldPath)
	fs.faults.forget(oldPath)
	fs.files[newPath] = f
	return nil
}

// ReadAt reads len(buf) bytes at offset; it returns an error if the range
// is not fully populated. With a FaultPlan armed it may fail transiently
// (nothing delivered, retryable via RetryPolicy) — the MDS/OST read
// hiccup that kills an unprotected restart.
func (fs *FS) ReadAt(path string, off int, buf []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, err := fs.readLocked(path, off, len(buf))
	if err != nil {
		return err
	}
	copy(buf, b)
	return nil
}

// View is ReadAt without the copy: it calls fn with the n stored bytes of
// path at offset off. It fails as ReadAt does — a missing file, a range
// past EOF, or one transient read fault drawn per call — and then fn is not
// called. View holds the FS mutex while fn runs — that is what keeps a
// concurrent write from changing the bytes under fn — so fn must not call
// back into this FS, and it must not keep the slice: a later write may
// change or replace the bytes.
func (fs *FS) View(path string, off, n int, fn func([]byte)) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, err := fs.readLocked(path, off, n)
	if err != nil {
		return err
	}
	fn(b)
	return nil
}

// readLocked checks that [off, off+n) of path is stored, draws the read's
// fault and returns the stored range; caller holds the lock.
func (fs *FS) readLocked(path string, off, n int) ([]byte, error) {
	f := fs.files[path]
	if f == nil {
		return nil, fmt.Errorf("pfs: %s: no such file", path)
	}
	if off+n > len(f.data) {
		return nil, fmt.Errorf("pfs: %s: read [%d,%d) beyond EOF %d", path, off, off+n, len(f.data))
	}
	if fe := fs.faults; fe != nil {
		if c := fe.begin("read", path, off); c.end(c.u(siteOp) < fe.plan.ReadFailProb) {
			fe.stats.FailedReads++
			return nil, &TransientError{Op: "read", Path: path}
		}
	}
	return f.data[off : off+n : off+n], nil
}

// Size returns the file size or -1 if absent.
func (fs *FS) Size(path string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[path]
	if f == nil {
		return -1
	}
	return len(f.data)
}

// Exists reports whether the file exists.
func (fs *FS) Exists(path string) bool { return fs.Size(path) >= 0 }

// Remove deletes a file.
func (fs *FS) Remove(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, path)
	delete(fs.reserved, path)
	fs.faults.forget(path)
}

// List returns all file paths, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Op is one I/O request in a synchronized phase of a parallel job.
type Op struct {
	Path  string
	Bytes int
	Off   int
	Write bool
	Open  bool // whether this op pays a file-open metadata cost
}

// PhaseStats is the virtual-time outcome of a synchronized I/O phase in
// which all listed ops proceed concurrently.
type PhaseStats struct {
	Elapsed    float64 // seconds: MDS time + slowest-OST transfer time
	MDSTime    float64
	IOTime     float64
	Bytes      int
	Throughput float64 // bytes/s aggregate
	MaxOSTLoad float64 // bytes on the most loaded OST
}

// SimulatePhase prices one synchronized parallel I/O phase: all ops start
// together; opens queue at the MDS (degrading superlinearly beyond the
// concurrency limit); bytes stripe across OSTs and the slowest OST gates
// completion. Data is not moved — pair with ReadAt/WriteAt for content.
func (fs *FS) SimulatePhase(ops []Op) PhaseStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var st PhaseStats
	ostBytes := make([]float64, fs.cfg.OSTs)
	opens := 0
	for _, op := range ops {
		if op.Open {
			opens++
		}
		st.Bytes += op.Bytes
		f := fs.files[op.Path]
		count, size, base := fs.defStripeCount, fs.defStripeSize, hashPath(op.Path)%fs.cfg.OSTs
		if f != nil {
			count, size, base = f.stripeCount, f.stripeSize, f.ostBase
		}
		// Distribute the byte range across the file's stripe set.
		stripe := (op.Off / size) % count
		remaining := op.Bytes
		off := op.Off
		for remaining > 0 {
			chunk := size - off%size
			if chunk > remaining {
				chunk = remaining
			}
			ost := (base + stripe) % fs.cfg.OSTs
			ostBytes[ost] += float64(chunk)
			remaining -= chunk
			off += chunk
			stripe = (stripe + 1) % count
		}
	}
	// MDS: service is serial at MDSLatency per op while load <= limit;
	// beyond the limit, lock contention degrades it quadratically (the
	// observed >100K-file pathology, §IV.E).
	if opens > 0 {
		factor := 1.0
		if opens > fs.cfg.MDSConcurrent {
			over := float64(opens) / float64(fs.cfg.MDSConcurrent)
			factor = over * over
		}
		st.MDSTime = float64(opens) * fs.cfg.MDSLatency * factor / float64(fs.cfg.MDSConcurrent)
	}
	for _, b := range ostBytes {
		if b > st.MaxOSTLoad {
			st.MaxOSTLoad = b
		}
	}
	st.IOTime = st.MaxOSTLoad / fs.cfg.OSTBandwidth
	st.Elapsed = st.MDSTime + st.IOTime
	if st.Elapsed > 0 {
		st.Throughput = float64(st.Bytes) / st.Elapsed
	}
	return st
}
