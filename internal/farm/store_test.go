package farm

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/workflow"
)

// Checksum returns the artifact's CRC64 trailer. Second return is false if
// missing or unreadably short.
func (s *Store) Checksum(key string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := artifactPath(key)
	sz := s.fs.Size(path)
	if sz < 8 {
		return 0, false
	}
	trailer := make([]byte, 8)
	if err := s.fs.ReadAt(path, sz-8, trailer); err != nil {
		return 0, false
	}
	return binary.LittleEndian.Uint64(trailer), true
}

// ProductChecksum computes the CRC64 a clean encoding of p would carry —
// the reference value for the zero-wrong-results gate.
func ProductChecksum(p Product) uint64 {
	data := p.encode()
	return binary.LittleEndian.Uint64(data[len(data)-8:])
}

func testProduct(sc Scenario) Product {
	const nx, ny = 6, 5
	p := Product{Scenario: sc, NX: nx, NY: ny, PGVH: make([]float32, nx*ny)}
	for i := range p.PGVH {
		p.PGVH[i] = float32(i) * 0.01
		if float64(p.PGVH[i]) > p.Peak {
			p.Peak = float64(p.PGVH[i])
		}
	}
	return p
}

func TestStoreRoundTrip(t *testing.T) {
	st := NewStore(pfs.New(pfs.Jaguar()), nil)
	sc := Scenario{Mw: 6.5, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.4, VsScale: 1.0}
	p := testProduct(sc)
	key, err := st.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if key != sc.Key() {
		t.Fatalf("key %s != scenario key %s", key, sc.Key())
	}
	if !st.Has(key) {
		t.Fatal("Has = false after Put")
	}
	got, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != sc || got.NX != p.NX || got.NY != p.NY || got.Peak != p.Peak {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	for i := range p.PGVH {
		if got.PGVH[i] != p.PGVH[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
	if keys := st.Keys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v", keys)
	}
	if bad := st.VerifyAll(); len(bad) != 0 {
		t.Fatalf("clean store audits dirty: %v", bad)
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	st := NewStore(pfs.New(pfs.Jaguar()), nil)
	sc := Scenario{Mw: 7.0, HypoX: 0.3, HypoY: 0.6, HypoZ: 0.5, VsScale: 0.95}
	key, err := st.Put(testProduct(sc))
	if err != nil {
		t.Fatal(err)
	}
	if !st.CorruptAtRest(key) {
		t.Fatal("corruption hook found no artifact")
	}
	if _, err := st.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt artifact = %v, want ErrCorrupt", err)
	}
	bad := st.VerifyAll()
	if len(bad) != 1 || bad[0] != key {
		t.Fatalf("audit found %v, want [%s]", bad, key)
	}
	// Re-put heals.
	if _, err := st.Put(testProduct(sc)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(key); err != nil {
		t.Fatalf("healed artifact unreadable: %v", err)
	}
}

// TestStorePutUnderFaultStorm: transient write faults, short writes and
// torn writes must all be absorbed by the write-verify-rename protocol —
// after Put succeeds the artifact always verifies.
func TestStorePutUnderFaultStorm(t *testing.T) {
	fs := pfs.New(pfs.Jaguar())
	fs.InjectFaults(pfs.FaultPlan{
		Seed: 42, WriteFailProb: 0.25, ShortWriteProb: 0.15,
		TornWriteProb: 0.15, ReadFailProb: 0.1, MaxConsecutive: 2,
	})
	st := NewStore(fs, nil)
	st.Retry.MaxAttempts = 12
	st.Retry.Sleep = func(time.Duration) {} // simulated time: no real sleeping
	var injected uint64
	for i := 0; i < 8; i++ {
		sc := Scenario{Mw: 5.5 + float64(i)*0.25, HypoX: 0.5, HypoY: 0.5,
			HypoZ: 0.5, VsScale: 1}
		key, err := st.Put(testProduct(sc))
		if err != nil {
			t.Fatalf("Put %d under fault storm: %v", i, err)
		}
		fst := fs.FaultStats()
		injected += fst.FailedWrites + fst.TornWrites + fst.ShortWrites + fst.FailedReads
		fs.ClearFaults()
		got, err := st.Get(key)
		if err != nil {
			t.Fatalf("Get %d after faulty Put: %v", i, err)
		}
		if got.Scenario != sc {
			t.Fatalf("artifact %d wrong content", i)
		}
		fs.InjectFaults(pfs.FaultPlan{
			Seed: int64(100 + i), WriteFailProb: 0.25, ShortWriteProb: 0.15,
			TornWriteProb: 0.15, ReadFailProb: 0.1, MaxConsecutive: 2,
		})
	}
	if injected == 0 {
		t.Fatal("fault storm injected nothing; test is vacuous")
	}
}

func TestStoreRegistryIntegration(t *testing.T) {
	reg := workflow.NewRegistry()
	st := NewStore(pfs.New(pfs.Jaguar()), reg)
	sc := Scenario{Mw: 6.0, HypoX: 0.4, HypoY: 0.4, HypoZ: 0.4, VsScale: 1.05}
	key, err := st.Put(testProduct(sc))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Lookup("products/" + key + ".farm")
	if !ok {
		t.Fatal("artifact not catalogued in registry")
	}
	if e.Bytes <= 0 || e.Checksum == "" {
		t.Fatalf("entry %+v", e)
	}
}

func TestProductChecksumStable(t *testing.T) {
	sc := Scenario{Mw: 6.2, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	p := testProduct(sc)
	a, b := ProductChecksum(p), ProductChecksum(p)
	if a != b {
		t.Fatal("checksum not deterministic")
	}
	st := NewStore(pfs.New(pfs.Jaguar()), nil)
	key, err := st.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := st.Checksum(key)
	if !ok || stored != a {
		t.Fatalf("stored checksum %x, reference %x", stored, a)
	}
	p.PGVH[0] += 1
	if ProductChecksum(p) == a {
		t.Fatal("checksum insensitive to payload change")
	}
}

func TestSanePGV(t *testing.T) {
	sc := Scenario{Mw: 6}
	good := testProduct(sc)
	if !SanePGV(good) {
		t.Fatal("good product rejected")
	}
	bad := good
	bad.Peak = math.NaN()
	if SanePGV(bad) {
		t.Fatal("NaN peak accepted")
	}
	bad = good
	bad.PGVH = bad.PGVH[:3]
	if SanePGV(bad) {
		t.Fatal("truncated payload accepted")
	}
}
