// Checkpoint file format v4 — the on-disk contract of the coordinated
// restart protocol (§III.F). A file is one rank's list of named sections
// (grid.Section) at one step, laid out by a table ahead of the values, as a
// DMPlex checkpoint is by its section layout. Little-endian throughout:
//
//	magic "AWPC" uint32 | version 4 uint32 | step int64 | sections n uint32
//	n × { name length uint32 | name | kind uint32 (4: float32, 8: float64) | count uint64 }
//	the sections' values, in table order
//	CRC64-ECMA of every byte before it, uint64
//
// No field names an owner: Read refuses a file whose table differs from the
// sections the reader hands over. The trailer covers the table too, and a
// file whose length is not what its table implies is refused. v1 files
// (float32 step and dims, no magic), v2 files (a fixed wavefield and
// memory-variable layout) and v3 files are refused, not read. v4 has v3's
// layout; what changed is what a velocity section holds under a sponge: the
// velocities before the sponge's damping of the step, which the solver now
// applies as the next step loads them. A v3 file holds them damped, and
// read into the solver it would be damped twice without a word.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"

	"repro/internal/grid"
)

const (
	magic      = uint32(0x43505741) // "AWPC"
	version    = uint32(4)
	headerLen  = 20
	entryLen   = 16 // an entry less its name
	trailerLen = 8
)

// Failure classes of the errors Read returns; classify with errors.Is.
var (
	ErrNotCheckpoint = errors.New("not a checkpoint file")                 // no magic: v1 files too
	ErrVersion       = errors.New("unsupported checkpoint format version") // v2 and v3 files too
	ErrTruncated     = errors.New("truncated checkpoint file")             // shorter than its header or table
	ErrChecksum      = errors.New("checkpoint CRC64 mismatch")             // bit rot, torn write
	ErrTable         = errors.New("checkpoint section table mismatch")     // malformed, or not the reader's
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// entry is one row of the section table.
type entry struct {
	name  string
	kind  int // bytes a value: 4 or 8
	count int
}

func tableOf(secs []grid.Section) []entry {
	tab := make([]entry, len(secs))
	for i, s := range secs {
		tab[i] = entry{s.Name, 4, len(s.F32)}
		if s.F64 != nil {
			tab[i] = entry{s.Name, 8, len(s.F64)}
		}
	}
	return tab
}

// encode serializes secs at step into one v4 file image.
func encode(step int, secs []grid.Section) []byte {
	tab := tableOf(secs)
	n := headerLen + trailerLen
	for _, e := range tab {
		n += entryLen + len(e.name) + e.kind*e.count
	}
	le := binary.LittleEndian
	out := make([]byte, headerLen, n)
	le.PutUint32(out, magic)
	le.PutUint32(out[4:], version)
	le.PutUint64(out[8:], uint64(step))
	le.PutUint32(out[16:], uint32(len(tab)))
	for _, e := range tab {
		out = le.AppendUint32(out, uint32(len(e.name)))
		out = append(out, e.name...)
		out = le.AppendUint32(out, uint32(e.kind))
		out = le.AppendUint64(out, uint64(e.count))
	}
	for _, s := range secs {
		p := len(out)
		out = out[:p+4*len(s.F32)+8*len(s.F64)]
		for i, v := range s.F32 {
			le.PutUint32(out[p+4*i:], math.Float32bits(v))
		}
		for i, v := range s.F64 {
			le.PutUint64(out[p+8*i:], math.Float64bits(v))
		}
	}
	return le.AppendUint64(out, crc64.Checksum(out, crcTable))
}

// decode parses a whole v4 file image, verifying the CRC64 trailer before it
// reads the table, and returns the step, the table and the values' bytes.
// Every length is checked against the bytes left before it is used, so what
// decode allocates is bounded by the file's length.
func decode(raw []byte) (step int64, tab []entry, vals []byte, err error) {
	le := binary.LittleEndian
	fail := func(class error, format string, args ...any) (int64, []entry, []byte, error) {
		return 0, nil, nil, fmt.Errorf("checkpoint: "+format+": %w", append(args, class)...)
	}
	// Magic screens first: a legacy v1 file (float32 header, often shorter
	// than the v4 header) must report ErrNotCheckpoint, not ErrTruncated.
	if len(raw) >= 4 && le.Uint32(raw) != magic {
		return fail(ErrNotCheckpoint, "magic %#x", le.Uint32(raw))
	}
	if len(raw) < headerLen+trailerLen {
		return fail(ErrTruncated, "%d-byte file", len(raw))
	}
	if v := le.Uint32(raw[4:]); v != version {
		return fail(ErrVersion, "version %d (supported: %d)", v, version)
	}
	body := raw[:len(raw)-trailerLen]
	if got, want := crc64.Checksum(body, crcTable), le.Uint64(raw[len(body):]); got != want {
		return fail(ErrChecksum, "crc %#x, trailer %#x", got, want)
	}
	step, n, rest := int64(le.Uint64(raw[8:])), le.Uint32(raw[16:]), body[headerLen:]
	if step < 0 {
		return fail(ErrTable, "step %d", step)
	}
	if uint64(n) > uint64(len(rest)/entryLen) {
		return fail(ErrTruncated, "%d sections in %d bytes", n, len(raw))
	}
	tab = make([]entry, n)
	need := 0 // value bytes the table so far claims
	for i := range tab {
		if len(rest) < entryLen || uint64(le.Uint32(rest)) > uint64(len(rest)-entryLen) {
			return fail(ErrTruncated, "section %d in the last %d bytes", i, len(rest))
		}
		l := le.Uint32(rest)
		e := &tab[i]
		e.name, rest = string(rest[4:4+l]), rest[4+l:]
		kind, count := le.Uint32(rest), le.Uint64(rest[4:])
		if rest = rest[12:]; kind != 4 && kind != 8 {
			return fail(ErrTable, "section %q of kind %d", e.name, kind)
		}
		if left := len(rest) - need; left < 0 || count > uint64(left)/uint64(kind) {
			return fail(ErrTruncated, "section %q of %d values", e.name, count)
		}
		e.kind, e.count = int(kind), int(count)
		need += e.kind * e.count
	}
	if need > len(rest) {
		return fail(ErrTruncated, "a table of %d value bytes in %d", need, len(rest))
	}
	if need < len(rest) {
		return fail(ErrTable, "a table of %d value bytes in %d", need, len(rest))
	}
	return step, tab, rest, nil
}

// fill copies the values decode returned into secs, whose table they match.
func fill(secs []grid.Section, vals []byte) {
	le := binary.LittleEndian
	for _, s := range secs {
		for i := range s.F32 {
			s.F32[i] = math.Float32frombits(le.Uint32(vals[4*i:]))
		}
		vals = vals[4*len(s.F32):]
		for i := range s.F64 {
			s.F64[i] = math.Float64frombits(le.Uint64(vals[8*i:]))
		}
		vals = vals[8*len(s.F64):]
	}
}
