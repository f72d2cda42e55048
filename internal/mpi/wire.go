package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// The one wire format for everything that is not a float32 field value.
// Messages are []float32 and the runtime moves them word for word, never
// through float arithmetic, so a word can carry any 32-bit pattern: float64
// reduction operands travel as the two halves of their IEEE bit pattern,
// bytes travel four to a word (PutBytes, GetBytes: agg's shipments carry
// their payload that way), and a Go value travels as its encoding/gob
// bytes.

// packF64 stores each value of src as two words, the high and low halves of
// its IEEE-754 bit pattern: every float64 — subnormals, ±Inf, NaN payloads —
// comes back bit for bit.
func packF64(src []float64, dst []float32) {
	for i, v := range src {
		u := math.Float64bits(v)
		dst[2*i] = math.Float32frombits(uint32(u >> 32))
		dst[2*i+1] = math.Float32frombits(uint32(u))
	}
}

func unpackF64(src []float32, dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(uint64(math.Float32bits(src[2*i]))<<32 | uint64(math.Float32bits(src[2*i+1])))
	}
}

// PutBytes stores b four to a little-endian word into w, the last word
// zero-padded, and returns the words used: (len(b)+3)/4.
func PutBytes(w []float32, b []byte) int {
	full := len(b) / 4
	w = w[:(len(b)+3)/4]
	for i := range full {
		w[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	if full < len(w) {
		var last [4]byte
		copy(last[:], b[4*full:])
		w[full] = math.Float32frombits(binary.LittleEndian.Uint32(last[:]))
	}
	return len(w)
}

// GetBytes inverts PutBytes: it fills b from the first (len(b)+3)/4 words
// of w.
func GetBytes(b []byte, w []float32) {
	full := len(b) / 4
	for i := range full {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(w[i]))
	}
	if full*4 < len(b) {
		var last [4]byte
		binary.LittleEndian.PutUint32(last[:], math.Float32bits(w[full]))
		copy(b[4*full:], last[:])
	}
}

// encodeBytes returns b as a message: one word holding the number of pad
// bytes (0–3), then b through PutBytes.
func encodeBytes(b []byte) []float32 {
	w := make([]float32, 1+(len(b)+3)/4)
	w[0] = math.Float32frombits(uint32((4 - len(b)%4) % 4))
	PutBytes(w[1:], b)
	return w
}

// decodeBytes inverts encodeBytes. A message that encodeBytes cannot have
// produced is an error.
func decodeBytes(w []float32) ([]byte, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("mpi: bytes message has no header word")
	}
	pad := math.Float32bits(w[0])
	if pad > 3 || (pad > 0 && len(w) == 1) {
		return nil, fmt.Errorf("mpi: bytes message of %d words claims %d pad bytes", len(w), pad)
	}
	out := make([]byte, 4*(len(w)-1)-int(pad))
	GetBytes(out, w[1:])
	return out, nil
}

// encodeValue returns v's gob encoding as a message.
func encodeValue(v any) ([]float32, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return encodeBytes(buf.Bytes()), nil
}

// decodeValue decodes a message encodeValue produced into *dst.
func decodeValue(w []float32, dst any) error {
	b, err := decodeBytes(w)
	if err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(dst)
}

// GatherValue collects every rank's v at root, through Gather: root returns
// the values indexed by rank, other ranks nil. T must be gob-encodable
// (exported fields). A rank that cannot encode v still takes part, with an
// empty message, and returns the error; root returns an error naming the
// first rank whose message does not decode, never a panic.
func GatherValue[T any](c *Comm, v T, root int) ([]T, error) {
	var msg []float32
	var encErr error
	if c.rank != root {
		msg, encErr = encodeValue(v)
	}
	all := c.Gather(msg, root)
	if c.rank != root {
		return nil, encErr
	}
	out := make([]T, len(all))
	out[root] = v
	for r, w := range all {
		if r == root {
			continue
		}
		if err := decodeValue(w, &out[r]); err != nil {
			return nil, fmt.Errorf("mpi: value from rank %d: %w", r, err)
		}
	}
	return out, nil
}

// BcastValue sends root's v to every rank through the Bcast tree; every
// rank returns root's value (the v of other ranks is ignored).
func BcastValue[T any](c *Comm, v T, root int) (T, error) {
	var msg []float32
	var encErr error
	if c.rank == root {
		msg, encErr = encodeValue(v)
	}
	msg = c.bcast(msg, root)
	if c.rank == root {
		return v, encErr
	}
	var out T
	if err := decodeValue(msg, &out); err != nil {
		return out, fmt.Errorf("mpi: value from root %d: %w", root, err)
	}
	return out, nil
}
