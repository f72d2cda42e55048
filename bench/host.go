package main

import (
	"bufio"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

type host struct{ cpuModel, l2, l3 string }

// hostInfo reads the fingerprint the output header carries; anything the
// platform does not expose reads "?".
func hostInfo() host {
	h := host{cpuModel: "?", l2: "?", l3: "?"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpuModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cache := func(index string) string {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + index + "/size")
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(b))
	}
	h.l2, h.l3 = cache("index2"), cache("index3")
	return h
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's ru_maxrss (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timeCalls returns the median wall time, in seconds, of reps calls of fn
// after one untimed warm-up call.
func timeCalls(reps int, fn func()) float64 {
	fn()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}
