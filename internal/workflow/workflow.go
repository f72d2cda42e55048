// Package workflow implements E2EaW (§III.I), the end-to-end workflow that
// moves simulation products from the compute site to the archive: GridFTP-
// style multi-stream transfers between simulated sites with failure
// injection and automatic retransfer, parallel MD5 verification, and an
// iRODS-like registry with replica and integrity metadata ingested through
// the aggregated PIPUT path (an order of magnitude faster than serial
// iPUT). Every integrity pass hashes a file where it lies (pfs View) into
// one output.HashListMD5 digest, its chunks in MD5 lanes on all cores, and
// Transfer writes each replica from the source's own bytes.
package workflow

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/output"
	"repro/internal/pfs"
)

// Site is one storage endpoint (e.g., Jaguar scratch, Kraken HPSS).
type Site struct {
	Name string
	FS   *pfs.FS
}

// Link models the wide-area path between two sites.
type Link struct {
	BandwidthPerStream float64 // bytes/s of one GridFTP stream
	MaxStreams         int     // parallel streams available
	FailureRate        float64 // probability a stream transfer attempt fails
}

// retryBackoff is the simulated-time pause before the first retransfer of
// a file, in seconds; it doubles per consecutive retry up to maxBackoff.
const retryBackoff, maxBackoff = 0.05, 1.0

// TransferStats reports one transfer job.
type TransferStats struct {
	Files      int
	Bytes      int
	Retries    int
	Elapsed    float64 // simulated seconds, backoff included
	BackoffSec float64 // simulated seconds spent backing off before retries
	Throughput float64 // bytes/s
	Verified   bool
}

// Transferer moves files between sites over a link.
type Transferer struct {
	Link Link
	rng  *rand.Rand
}

// NewTransferer seeds the failure injector deterministically.
func NewTransferer(link Link, seed int64) *Transferer {
	if link.MaxStreams <= 0 {
		link.MaxStreams = 1
	}
	return &Transferer{Link: link, rng: rand.New(rand.NewSource(seed))}
}

// Transfer copies the named files from src to dst with up to MaxStreams
// parallel streams, verifying digests end to end and automatically
// retransferring failed or corrupted files (§III.I: "transaction records
// are maintained to allow automatic recovery"). Each source is hashed and
// shipped where it lies: one pfs View a file, so one read and one read
// fault drawn, with every attempt inside it; a verified replica is exactly
// the source's length. The View holds src's lock, so src and dst must be
// two file systems.
func (t *Transferer) Transfer(src, dst Site, paths []string, nStreams int) (TransferStats, error) {
	if nStreams <= 0 || nStreams > t.Link.MaxStreams {
		nStreams = t.Link.MaxStreams
	}
	var st TransferStats
	st.Files = len(paths)
	if src.FS == dst.FS {
		return st, fmt.Errorf("workflow: transfer from %s to %s within one file system", src.Name, dst.Name)
	}
	// Stream-parallel scheduling: files are assigned round-robin; each
	// stream moves its files serially. Simulated time = slowest stream.
	streams := make([]float64, nStreams)
	for idx, p := range paths {
		sz := src.FS.Size(p)
		if sz < 0 {
			return st, fmt.Errorf("workflow: %s missing at %s", p, src.Name)
		}
		var err error
		if viewErr := src.FS.View(p, 0, sz, func(data []byte) {
			err = t.ship(dst, p, data, &streams[idx%nStreams], &st)
		}); viewErr != nil {
			return st, viewErr
		}
		if err != nil {
			return st, err
		}
		st.Bytes += sz
	}
	for _, s := range streams {
		if s > st.Elapsed {
			st.Elapsed = s
		}
	}
	if st.Elapsed > 0 {
		st.Throughput = float64(st.Bytes) / st.Elapsed
	}
	st.Verified = true
	return st, nil
}

// ship writes data to path p at dst until a read-back digest matches the
// source's, accruing each attempt's simulated time and backoff on its
// stream.
func (t *Transferer) ship(dst Site, p string, data []byte, stream *float64, st *TransferStats) error {
	const maxAttempts = 8
	backoff := retryBackoff
	sz := len(data)
	want := output.HashListMD5(data)
	// A write at offset 0 keeps the tail of a longer file: remove it
	// first. Re-creating it may draw an MDS fault, which is a failed
	// attempt like any other.
	if dst.FS.Size(p) > sz {
		dst.FS.Remove(p)
	}
	// The replica is allocated once, whatever prefixes failed attempts
	// leave behind.
	dst.FS.Reserve(p, sz)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// Bounded exponential backoff before every retransfer,
			// accounted in simulated time on the file's stream.
			*stream += backoff
			st.BackoffSec += backoff
			backoff = min(2*backoff, maxBackoff)
		}
		*stream += float64(sz) / t.Link.BandwidthPerStream
		if t.rng.Float64() < t.Link.FailureRate {
			st.Retries++
			continue // failed attempt: retransfer
		}
		if err := dst.FS.WriteAt(p, 0, data); err != nil {
			// A failed destination write is a failed attempt, not a
			// success-until-checksum: count it and retransfer. Only
			// transient storage faults are retryable.
			st.Retries++
			if !pfs.IsTransient(err) {
				return err
			}
			continue
		}
		// End-to-end verification (catches torn writes that reported
		// success and transient read hiccups). A destination file
		// shorter than the source is the truncated-artifact face of a
		// torn write — a failed attempt, not a fatal error.
		if dst.FS.Size(p) < sz {
			st.Retries++
			continue
		}
		got, err := digest(dst.FS, p, sz)
		if err != nil {
			st.Retries++
			if !pfs.IsTransient(err) {
				return err
			}
			continue
		}
		if got != want {
			st.Retries++
			continue
		}
		return nil
	}
	return fmt.Errorf("workflow: %s failed after %d attempts", p, maxAttempts)
}

// digest hashes the first n bytes of path in place: one View, so one read
// and one read-fault draw, and no copy.
func digest(fs *pfs.FS, path string, n int) (string, error) {
	var sum string
	err := fs.View(path, 0, n, func(b []byte) { sum = output.HashListMD5(b) })
	return sum, err
}

// Registry is the iRODS-like digital-library catalogue: per object the
// checksum and the sites holding replicas.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*Entry
}

// Entry is one catalogued object.
type Entry struct {
	Path string
	// Checksum is output.HashListMD5 of the object's bytes: the hex MD5 of
	// the MD5s of its 1 MiB chunks in order, not the MD5 of the object.
	Checksum string
	Bytes    int
	Replicas []string // site names
}

// NewRegistry creates an empty catalogue.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*Entry{}}
}

// Ingest registers files present at a site, computing checksums in
// parallel with nWorkers concurrent workers (the PIPUT aggregated path;
// nWorkers=1 is the serial iPUT baseline). Returns the simulated ingestion
// time assuming perStreamBandwidth per worker. A file already catalogued
// adds the site as a replica only if its checksum matches the registered
// one; a copy that differs is an error naming the path and the site.
func (r *Registry) Ingest(site Site, paths []string, nWorkers int, perStreamBandwidth float64) (float64, error) {
	if nWorkers <= 0 {
		nWorkers = 1
	}
	type result struct {
		entry *Entry
		err   error
	}
	results := make(chan result, len(paths))
	var wg sync.WaitGroup
	workerTime := make([]float64, nWorkers)
	// Deterministic round-robin assignment: the simulated elapsed time is
	// the slowest worker's share, independent of goroutine scheduling.
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pi := w; pi < len(paths); pi += nWorkers {
				p := paths[pi]
				sz := site.FS.Size(p)
				if sz < 0 {
					results <- result{err: fmt.Errorf("workflow: %s missing", p)}
					continue
				}
				sum, err := digest(site.FS, p, sz)
				if err != nil {
					results <- result{err: err}
					continue
				}
				workerTime[w] += float64(sz) / perStreamBandwidth
				results <- result{entry: &Entry{
					Path: p, Checksum: sum, Bytes: sz,
					Replicas: []string{site.Name},
				}}
			}
		}(w)
	}
	wg.Wait()
	close(results)
	// Drain every worker result before surfacing the first error: the
	// successfully checksummed files stay registered (they are verified
	// facts about the site), no queued result is abandoned on the buffered
	// channel, and the caller still learns the ingest was incomplete.
	var firstErr error
	for res := range results {
		if res.err == nil {
			res.err = r.addReplica(site, res.entry)
		}
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	elapsed := 0.0
	for _, t := range workerTime {
		if t > elapsed {
			elapsed = t
		}
	}
	return elapsed, nil
}

// Register catalogues a single file present at a site, computing its
// checksum synchronously — the artifact-store path of the ensemble farm,
// which registers each completed scenario product as it lands rather than
// batch-ingesting a directory.
func (r *Registry) Register(site Site, path string) (Entry, error) {
	sz := site.FS.Size(path)
	if sz < 0 {
		return Entry{}, fmt.Errorf("workflow: %s missing at %s", path, site.Name)
	}
	sum, err := digest(site.FS, path, sz)
	if err != nil {
		return Entry{}, err
	}
	entry := &Entry{
		Path: path, Checksum: sum, Bytes: sz,
		Replicas: []string{site.Name},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[path]; e != nil {
		e.Checksum = entry.Checksum
		e.Bytes = entry.Bytes
		e.Replicas = mergeReplicas(e.Replicas, entry.Replicas)
		return *e, nil
	}
	r.entries[path] = entry
	return *entry, nil
}

// addReplica catalogues an ingested copy: a new entry, or one more replica
// of an entry whose checksum and size it matches.
func (r *Registry) addReplica(site Site, entry *Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[entry.Path]
	if e == nil {
		r.entries[entry.Path] = entry
		return nil
	}
	if e.Checksum != entry.Checksum || e.Bytes != entry.Bytes {
		return fmt.Errorf("workflow: %s at %s does not match its registered checksum", entry.Path, site.Name)
	}
	e.Replicas = mergeReplicas(e.Replicas, entry.Replicas)
	return nil
}

func mergeReplicas(a, b []string) []string {
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			a = append(a, s)
			seen[s] = true
		}
	}
	sort.Strings(a)
	return a
}

// Lookup returns the entry for a path.
func (r *Registry) Lookup(path string) (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[path]
	if e == nil {
		return Entry{}, false
	}
	return *e, true
}

// VerifyReplica checks that a site's copy has the registered size and
// checksum.
func (r *Registry) VerifyReplica(site Site, path string) error {
	e, ok := r.Lookup(path)
	if !ok {
		return fmt.Errorf("workflow: %s not registered", path)
	}
	if sz := site.FS.Size(path); sz >= 0 && sz != e.Bytes {
		return fmt.Errorf("workflow: %s replica at %s is %d bytes, registered %d", path, site.Name, sz, e.Bytes)
	}
	sum, err := digest(site.FS, path, e.Bytes)
	if err != nil {
		return err
	}
	if sum != e.Checksum {
		return fmt.Errorf("workflow: %s replica at %s corrupt", path, site.Name)
	}
	return nil
}

// Count returns the number of catalogued objects.
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
