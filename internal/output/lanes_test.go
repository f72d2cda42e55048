package output

import (
	"crypto/md5"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestBodiesMatchCryptoMD5 runs every body the host has on 1–16 spans of
// one length and of unequal lengths and offsets (whole blocks in common or
// none, tails of 0–63 bytes, unaligned starts, two lanes on one span),
// against crypto/md5 span by span. A body the CPU lacks is skipped with the
// CPUID reason.
func TestBodiesMatchCryptoMD5(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(data)
	rng := rand.New(rand.NewSource(12))
	for _, b := range bodies {
		t.Run(b.name, func(t *testing.T) {
			if !b.has.Has {
				t.Skipf("%s: %s", b.name, b.has.Why)
			}
			for n := 1; n <= 16; n++ {
				for _, equal := range []bool{true, false} {
					size := []int{0, 63, 64, 65, 4096, 65536 + 17}[rng.Intn(6)]
					spans := make([]span, n)
					for i := range spans {
						if !equal {
							size = rng.Intn(8000)
						}
						spans[i] = span{rng.Intn(len(data) - size + 1), size}
					}
					if n > 2 {
						spans[n-1] = spans[0]
					}
					sums := make([][md5.Size]byte, n)
					for lo := 0; lo < n; lo += b.width {
						hi := min(lo+b.width, n)
						b.sum(data, spans[lo:hi], sums[lo:hi])
					}
					for i, s := range spans {
						if want := md5.Sum(data[s.off : s.off+s.n]); sums[i] != want {
							t.Fatalf("%d spans (equal %v), lane %d [%d,+%d): %x, crypto/md5 %x", n, equal, i, s.off, s.n, sums[i], want)
						}
					}
				}
			}
		})
	}
}

// TestBodySpanPastSliceRejected: a span that starts before or runs past
// the slice panics before a body runs, as does a batch wider than the body.
func TestBodySpanPastSliceRejected(t *testing.T) {
	data := make([]byte, 4096)
	for _, b := range bodies {
		for _, spans := range [][]span{
			{{0, 4096}, {1, 4096}},
			{{0, 64}, {-1, 64}},
			{{4000, 64}, {0, 1 << 62}},
			make([]span, b.width+1),
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: spans %v of a %d B slice did not panic", b.name, spans[:min(len(spans), 2)], len(data))
					}
				}()
				b.sum(data, spans, make([][md5.Size]byte, len(spans)))
			}()
		}
	}
}

func TestBatchesBalanced(t *testing.T) {
	for _, c := range []struct {
		n, width int
		want     string
	}{
		{18, 16, "[0 9 18]"}, {18, 8, "[0 6 12 18]"}, {16, 16, "[0 16]"},
		{17, 16, "[0 8 17]"}, {3, 8, "[0 3]"}, {0, 8, "[0]"}, {5, 1, "[0 1 2 3 4 5]"},
	} {
		if got := fmt.Sprint(batches(c.n, c.width)); got != c.want {
			t.Errorf("batches(%d, %d) = %s, want %s", c.n, c.width, got, c.want)
		}
	}
}

var fuzzData = sync.OnceValue(func() []byte {
	data := make([]byte, 20<<20)
	rand.New(rand.NewSource(13)).Read(data)
	return data
})

// FuzzHashListMD5 holds HashListMD5 to its serial definition on n bytes at
// an offset of 0–63 into a random buffer, seeded at the block and chunk
// edges and at the pipeline's three archived files.
func FuzzHashListMD5(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, mib - 1, mib, mib + 1, 8*mib - 1, 8 * mib, 8*mib + 1,
		16*mib - 1, 16 * mib, 16*mib + 1, 18874368, 16924164, 3538944} {
		f.Add(uint32(n), uint8(n%7))
	}
	f.Fuzz(func(t *testing.T, n uint32, off uint8) {
		data := fuzzData()
		o := int(off % 64)
		b := data[o : o+int(n)%(len(data)-63)]
		if got, want := HashListMD5(b), hashListReference(b); got != want {
			t.Fatalf("%d B at offset %d: %s, serial reference %s (body %s)", len(b), o, got, want, lanes.name)
		}
	})
}

// The lane body the host runs is named in verbose test output, so a log
// shows which body the digests above came from.
func TestLaneBodyChosen(t *testing.T) {
	var names []string
	for _, b := range bodies {
		names = append(names, fmt.Sprintf("%s=%v", b.name, b.has.Has))
	}
	t.Logf("lanes: %s (%d wide); %s", lanes.name, lanes.width, strings.Join(names, " "))
	if lanes.width > 1 && !lanes.has.Has {
		t.Fatalf("lanes is %s, which the host lacks", lanes.name)
	}
}
