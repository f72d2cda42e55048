package output

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
)

func TestParallelMD5MatchesSerial(t *testing.T) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	for _, parts := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64} {
		p := ParallelMD5(data, parts)
		s := SerialMD5(data, parts)
		if len(p) != len(s) {
			t.Fatalf("parts=%d: lengths differ", parts)
		}
		for i := range p {
			if p[i] != s[i] {
				t.Fatalf("parts=%d chunk %d differs", parts, i)
			}
		}
	}
	// Degenerate inputs.
	if got := ParallelMD5(nil, 4); len(got) != 4 {
		t.Fatalf("nil data: %d sums", len(got))
	}
	if got := ParallelMD5([]byte{1}, 0); len(got) != 1 {
		t.Fatalf("0 parts: %d sums", len(got))
	}
}

const mib = 1 << 20

// hashListReference is HashListMD5 written serially from its definition:
// the MD5 of the in-order MD5s of the 1 MiB chunks.
func hashListReference(data []byte) string {
	var list []byte
	for lo := 0; lo < len(data); lo += mib {
		s := md5.Sum(data[lo:min(lo+mib, len(data))])
		list = append(list, s[:]...)
	}
	top := md5.Sum(list)
	return hex.EncodeToString(top[:])
}

func TestHashListMD5MatchesSerialAtAnyWorkerCount(t *testing.T) {
	data := make([]byte, 5*mib+7)
	rand.New(rand.NewSource(5)).Read(data)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, mib - 1, mib, mib + 1, 5*mib + 7} {
		want := hashListReference(data[:n])
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if got := HashListMD5(data[:n]); got != want {
				t.Fatalf("len %d, GOMAXPROCS %d: %s, serial reference %s", n, procs, got, want)
			}
		}
	}
}

// Every edit an integrity pass must catch changes the digest: a flipped
// byte in the first, a middle and the last chunk, a lost last byte, and
// an appended zero byte (a new chunk at an exact chunk multiple).
func TestHashListMD5DetectsEdits(t *testing.T) {
	for _, n := range []int{mib, 5*mib + 7} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		base := HashListMD5(data)
		flip := func(i int) []byte {
			c := bytes.Clone(data)
			c[i] ^= 0x01
			return c
		}
		edits := map[string][]byte{
			"flip in the first chunk": flip(3),
			"flip in a middle chunk":  flip(n / 2),
			"flip in the last chunk":  flip(n - 1),
			"one byte truncated":      data[:n-1],
			"one zero byte appended":  append(bytes.Clone(data), 0),
		}
		for name, edited := range edits {
			if HashListMD5(edited) == base {
				t.Errorf("len %d: %s leaves the digest unchanged", n, name)
			}
		}
	}
}
