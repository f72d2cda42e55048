package main

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGeneratedFilesAreCurrent holds the committed files to a fresh
// generation byte for byte: a table edited without go generate fails here.
func TestGeneratedFilesAreCurrent(t *testing.T) {
	for _, f := range generate() {
		path := filepath.Join("..", "..", "internal", "output", f.name)
		have, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, f.data) {
			t.Errorf("%s is stale: run go generate ./internal/output", path)
		}
		if !strings.HasPrefix(string(f.data), header) {
			t.Errorf("%s has no generated-code header", path)
		}
	}
}

// rounds are MD5's four round functions (RFC 1321 §3.4).
var rounds = map[byte]func(b, c, d uint32) uint32{
	'F': func(b, c, d uint32) uint32 { return b&c | ^b&d },
	'G': func(b, c, d uint32) uint32 { return b&d | c&^d },
	'H': func(b, c, d uint32) uint32 { return b ^ c ^ d },
	'I': func(b, c, d uint32) uint32 { return c ^ (b | ^d) },
}

// md5Table is MD5 computed from the table, one step at a time, the way the
// bodies compute each lane.
func md5Table(msg []byte) [md5.Size]byte {
	n := len(msg)
	msg = append(append([]byte{}, msg...), 0x80)
	for len(msg)%64 != 56 {
		msg = append(msg, 0)
	}
	msg = binary.LittleEndian.AppendUint64(msg, uint64(n)*8)
	st := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	for ; len(msg) > 0; msg = msg[64:] {
		a, b, c, d := st[0], st[1], st[2], st[3]
		for _, s := range steps {
			x := binary.LittleEndian.Uint32(msg[4*s.k:])
			a = b + bits.RotateLeft32(a+rounds[s.f](b, c, d)+x+s.t, s.s)
			a, b, c, d = d, a, b, c
		}
		st = [4]uint32{st[0] + a, st[1] + b, st[2] + c, st[3] + d}
	}
	var sum [md5.Size]byte
	for i, v := range st {
		binary.LittleEndian.PutUint32(sum[4*i:], v)
	}
	return sum
}

// TestTableIsMD5: the table's constants are ⌊|sin(i+1)|·2³²⌋, and the
// table stepped in Go is crypto/md5 on lengths across the padding's edges.
func TestTableIsMD5(t *testing.T) {
	for i, s := range steps {
		if want := uint32(math.Floor(math.Abs(math.Sin(float64(i+1))) * (1 << 32))); s.t != want {
			t.Errorf("step %d: t = %#08x, want %#08x", i, s.t, want)
		}
	}
	msg := make([]byte, 300)
	rand.New(rand.NewSource(1)).Read(msg)
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 300} {
		if got, want := md5Table(msg[:n]), md5.Sum(msg[:n]); got != want {
			t.Errorf("%d B: table %x, crypto/md5 %x", n, got, want)
		}
	}
}

// TestAVX2RoundsAreTheRoundFunctions runs each round's instruction
// sequence on random words, in Go's operand order, against the round
// function.
func TestAVX2RoundsAreTheRoundFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for f, seq := range avx2Round {
		for n := 0; n < 100; n++ {
			v := map[string]uint32{"b": rng.Uint32(), "c": rng.Uint32(), "d": rng.Uint32(), "one": ^uint32(0)}
			for _, in := range seq {
				x, y := v[in[1]], v[in[2]]
				switch in[0] {
				case "VPXOR":
					v[in[3]] = x ^ y
				case "VPAND":
					v[in[3]] = x & y
				case "VPOR":
					v[in[3]] = x | y
				case "VPANDN":
					v[in[3]] = x &^ y
				default:
					t.Fatalf("%c: no model of %s", f, in[0])
				}
			}
			if want := rounds[f](v["b"], v["c"], v["d"]); v["t"] != want {
				t.Fatalf("%c(%#x, %#x, %#x): sequence %#x, round function %#x", f, v["b"], v["c"], v["d"], v["t"], want)
			}
		}
	}
}

// body returns the generated body's instructions.
func body(t *testing.T) []string {
	var ins []string
	for _, f := range generate() {
		if !strings.HasSuffix(f.name, ".s") {
			continue
		}
		in := false
		for _, l := range strings.Split(string(f.data), "\n") {
			in = in || strings.HasPrefix(l, "TEXT ·md5x8(SB)")
			if in && strings.HasPrefix(l, "\t") && !strings.HasPrefix(strings.TrimSpace(l), "//") {
				ins = append(ins, strings.TrimSpace(l))
			}
		}
	}
	if len(ins) == 0 {
		t.Fatal("no md5x8 in the generated assembly")
	}
	return ins
}

// TestBodyIsVEXOnly: the body runs on hosts with AVX2 and without AVX-512,
// so it may use neither an EVEX-only instruction, an opmask, a ZMM register
// nor X16–X31/Y16–Y31. Every vector instruction is VEX: a legacy SSE one
// among them costs a state transition a call.
func TestBodyIsVEXOnly(t *testing.T) {
	evex := regexp.MustCompile(`\bZ\d+\b|\bK\d\b|\b[XY](1[6-9]|2\d|3[01])\b|\.BCST|TERNLOG|PROL|DQ[AU]32|DQ[AU]64`)
	vec := regexp.MustCompile(`\b[XY]\d+\b`)
	for _, in := range body(t) {
		if evex.MatchString(in) {
			t.Errorf("EVEX instruction %s", in)
		}
		if vec.MatchString(in) && !strings.HasPrefix(in, "V") {
			t.Errorf("legacy SSE instruction %s", in)
		}
	}
}

// TestBodyEndsInVZEROUPPER: the body leaves the upper halves clean, so the
// SSE code after it pays no transition.
func TestBodyEndsInVZEROUPPER(t *testing.T) {
	ins := body(t)
	if n := len(ins); n < 2 || ins[n-2] != "VZEROUPPER" || ins[n-1] != "RET" {
		t.Errorf("md5x8 ends %q, want VZEROUPPER; RET", ins[max(0, len(ins)-2):])
	}
	if strings.Count(strings.Join(ins, "\n"), "RET") != 1 {
		t.Error("md5x8 has more than one RET")
	}
}
