package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"strings"
	"sync"

	"repro/internal/pfs"
	"repro/internal/workflow"
)

// ErrCorrupt marks an artifact whose CRC64 trailer does not match its
// payload. The store never returns corrupted data to a caller: Get reports
// this sentinel and the farm re-queues the scenario.
var ErrCorrupt = errors.New("farm: artifact corrupt")

// ErrNotFound marks a missing artifact.
var ErrNotFound = errors.New("farm: artifact not found")

var crcTable = crc64.MakeTable(crc64.ECMA)

const (
	artifactMagic   = "FARM"
	artifactVersion = 1
)

// Product is one completed scenario result: the surface PGV map plus its
// scalar summary, the unit the hazard service stores and serves.
type Product struct {
	Scenario Scenario
	NX, NY   int
	PGVH     []float32 // horizontal peak ground velocity, row-major [j*NX+i]
	Peak     float64   // max over the map
}

// encode serializes a product with a CRC64-ECMA trailer over everything
// that precedes it. Layout (little-endian): magic, version, scenario
// params (5×float64), NX, NY, payload float32s, CRC64.
func (p Product) encode() []byte {
	var buf bytes.Buffer
	buf.WriteString(artifactMagic)
	le := binary.LittleEndian
	w := func(v any) { binary.Write(&buf, le, v) }
	w(uint32(artifactVersion))
	w(p.Scenario.Mw)
	w(p.Scenario.HypoX)
	w(p.Scenario.HypoY)
	w(p.Scenario.HypoZ)
	w(p.Scenario.VsScale)
	w(uint32(p.NX))
	w(uint32(p.NY))
	w(p.Peak)
	w(p.PGVH)
	sum := crc64.Checksum(buf.Bytes(), crcTable)
	w(sum)
	return buf.Bytes()
}

// decodeProduct parses and CRC-verifies an artifact.
func decodeProduct(data []byte) (Product, error) {
	var p Product
	if len(data) < len(artifactMagic)+4+8 {
		return p, ErrCorrupt
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	le := binary.LittleEndian
	if crc64.Checksum(body, crcTable) != le.Uint64(trailer) {
		return p, ErrCorrupt
	}
	if string(body[:4]) != artifactMagic {
		return p, ErrCorrupt
	}
	r := bytes.NewReader(body[4:])
	rd := func(v any) error { return binary.Read(r, le, v) }
	var ver, nx, ny uint32
	if err := rd(&ver); err != nil || ver != artifactVersion {
		return p, ErrCorrupt
	}
	for _, f := range []*float64{&p.Scenario.Mw, &p.Scenario.HypoX,
		&p.Scenario.HypoY, &p.Scenario.HypoZ, &p.Scenario.VsScale} {
		if err := rd(f); err != nil {
			return p, ErrCorrupt
		}
	}
	if rd(&nx) != nil || rd(&ny) != nil || rd(&p.Peak) != nil {
		return p, ErrCorrupt
	}
	p.NX, p.NY = int(nx), int(ny)
	if nx == 0 || ny == 0 || nx > 1<<16 || ny > 1<<16 {
		return p, ErrCorrupt
	}
	p.PGVH = make([]float32, int(nx)*int(ny))
	if rd(&p.PGVH) != nil || r.Len() != 0 {
		return p, ErrCorrupt
	}
	return p, nil
}

// Store is the content-addressed result store: artifacts are keyed by
// scenario hash, persisted on a (fault-injectable) simulated parallel file
// system, CRC64-verified on every read-back, and optionally catalogued in
// the workflow registry. Writes go through a temp-name + read-back-verify
// + rename protocol so a torn write can never become the served copy.
type Store struct {
	mu   sync.Mutex
	fs   *pfs.FS
	site workflow.Site
	reg  *workflow.Registry // optional catalogue
	// Retry governs transient-fault retries on the write path.
	Retry pfs.RetryPolicy
}

// NewStore creates a store over fs. reg may be nil.
func NewStore(fs *pfs.FS, reg *workflow.Registry) *Store {
	return &Store{
		fs:    fs,
		site:  workflow.Site{Name: "farm-store", FS: fs},
		reg:   reg,
		Retry: pfs.DefaultRetry(),
	}
}

func artifactPath(key string) string { return "products/" + key + ".farm" }

// Put persists a product under its scenario key. The artifact is written
// to a temp name with transient-fault retries, read back and CRC-verified
// (catching torn writes that reported success), then renamed into place.
// A failed verification counts as a transient fault and is retried.
func (s *Store) Put(p Product) (string, error) {
	key := p.Scenario.Key()
	data := p.encode()
	final := artifactPath(key)
	tmp := final + ".tmp"
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.Retry.Do(func() error {
		s.fs.Remove(tmp)
		if err := s.fs.WriteAt(tmp, 0, data); err != nil {
			return err
		}
		got := make([]byte, len(data))
		if s.fs.Size(tmp) < len(data) {
			return &pfs.TransientError{Op: "verify-short", Path: tmp}
		}
		if err := s.fs.ReadAt(tmp, 0, got); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			// A torn write persisted garbage while reporting success;
			// classify as transient so the policy rewrites it.
			return &pfs.TransientError{Op: "verify-mismatch", Path: tmp}
		}
		return nil
	})
	if err != nil {
		s.fs.Remove(tmp)
		return key, err
	}
	if err := s.Retry.Do(func() error { return s.fs.Rename(tmp, final) }); err != nil {
		return key, err
	}
	if s.reg != nil {
		if _, err := s.reg.Register(s.site, final); err != nil {
			return key, err
		}
	}
	return key, nil
}

// Get loads and verifies an artifact. A CRC mismatch (or any truncation/
// garbling) returns ErrCorrupt wrapped with the key; corrupted bytes are
// never returned.
func (s *Store) Get(key string) (Product, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(key)
}

func (s *Store) getLocked(key string) (Product, error) {
	path := artifactPath(key)
	sz := s.fs.Size(path)
	if sz < 0 {
		return Product{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	data := make([]byte, sz)
	if err := s.fs.ReadAt(path, 0, data); err != nil {
		if pfs.IsTransient(err) {
			// One retry round for transient read faults; persistent
			// trouble surfaces to the caller.
			if err2 := s.Retry.Do(func() error {
				return s.fs.ReadAt(path, 0, data)
			}); err2 != nil {
				return Product{}, err2
			}
		} else {
			return Product{}, err
		}
	}
	p, err := decodeProduct(data)
	if err != nil {
		return Product{}, fmt.Errorf("%w: %s", ErrCorrupt, key)
	}
	return p, nil
}

// Has reports whether an artifact exists (without verifying it).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs.Exists(artifactPath(key))
}

// Keys lists stored artifact keys.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for _, p := range s.fs.List() {
		if strings.HasPrefix(p, "products/") && strings.HasSuffix(p, ".farm") {
			keys = append(keys, strings.TrimSuffix(strings.TrimPrefix(p, "products/"), ".farm"))
		}
	}
	return keys
}

// Delete removes an artifact (the re-queue path after corruption).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fs.Remove(artifactPath(key))
}

// VerifyAll audits every stored artifact, returning the keys that fail
// CRC verification. The farm's background audit re-queues these.
func (s *Store) VerifyAll() []string {
	var bad []string
	for _, key := range s.Keys() {
		s.mu.Lock()
		_, err := s.getLocked(key)
		s.mu.Unlock()
		if errors.Is(err, ErrCorrupt) {
			bad = append(bad, key)
		}
	}
	return bad
}

// CorruptAtRest is the chaos hook: it flips bytes in the stored artifact
// for key, simulating at-rest bit rot. The flip rides the store's retry
// policy, so a transient PFS fault cannot swallow a corruption the chaos
// engine has already counted. Returns false if the artifact does not
// exist.
func (s *Store) CorruptAtRest(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := artifactPath(key)
	sz := s.fs.Size(path)
	if sz <= 0 {
		return false
	}
	// Garble a byte in the middle of the payload.
	buf := []byte{0x5A}
	old := make([]byte, 1)
	off := sz / 2
	if err := s.fs.ReadAt(path, off, old); err == nil && old[0] == 0x5A {
		buf[0] = 0xA5
	}
	return s.Retry.Do(func() error { return s.fs.WriteAt(path, off, buf) }) == nil
}

// SanePGV rejects products with NaN/Inf peaks (defense against a solver
// gone numerically unstable under perturbation).
func SanePGV(p Product) bool {
	if math.IsNaN(p.Peak) || math.IsInf(p.Peak, 0) || p.Peak < 0 {
		return false
	}
	return len(p.PGVH) == p.NX*p.NY
}
