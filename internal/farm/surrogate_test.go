package farm

import (
	"math"
	"testing"
)

// surrogate ground truth: a smooth function over the scenario box.
func truth(sc Scenario) float64 {
	return 0.3 + 0.5*(sc.Mw-5.5)/2 + 0.1*math.Sin(3*sc.HypoX) + 0.05*sc.VsScale
}

func TestSurrogateInterpolates(t *testing.T) {
	r := DefaultRange()
	s := NewSurrogate(r)
	if _, ok := s.Predict(Scenario{Mw: 6}); ok {
		t.Fatal("untrained surrogate predicted")
	}
	train := LatinHypercube(40, 7, r)
	for _, sc := range train {
		s.Observe(sc, truth(sc))
	}
	if s.N() != 40 {
		t.Fatalf("N = %d", s.N())
	}
	// Training points reproduce nearly exactly (ridge is tiny).
	for _, sc := range train[:8] {
		got, ok := s.Predict(sc)
		if !ok {
			t.Fatal("no prediction")
		}
		if math.Abs(got-truth(sc)) > 0.02 {
			t.Fatalf("train point: got %g want %g", got, truth(sc))
		}
	}
	// Held-out points interpolate decently.
	test := LatinHypercube(10, 99, r)
	var sumErr float64
	for _, sc := range test {
		got, _ := s.Predict(sc)
		sumErr += math.Abs(got - truth(sc))
	}
	if avg := sumErr / float64(len(test)); avg > 0.1 {
		t.Fatalf("held-out mean abs error %g too large", avg)
	}
}

func TestSurrogateRejectsBadObservations(t *testing.T) {
	s := NewSurrogate(DefaultRange())
	s.Observe(Scenario{Mw: 6}, math.NaN())
	s.Observe(Scenario{Mw: 6}, math.Inf(1))
	if s.N() != 0 {
		t.Fatalf("NaN/Inf observations accepted: N=%d", s.N())
	}
	s.Observe(Scenario{Mw: 6, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}, 0.4)
	v, ok := s.Predict(Scenario{Mw: 6, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1})
	if !ok || v < 0 {
		t.Fatalf("single-point predict = %g, %v", v, ok)
	}
}

func TestLatinHypercubeCoverage(t *testing.T) {
	r := DefaultRange()
	n := 16
	scs := LatinHypercube(n, 3, r)
	if len(scs) != n {
		t.Fatalf("len %d", len(scs))
	}
	// Stratification: each Mw stratum hit exactly once.
	seen := make([]bool, n)
	for _, sc := range scs {
		u := (sc.Mw - r.Lo.Mw) / (r.Hi.Mw - r.Lo.Mw)
		k := int(u * float64(n))
		if k == n {
			k = n - 1
		}
		if u < 0 || u >= 1.0000001 {
			t.Fatalf("Mw %g outside range", sc.Mw)
		}
		if seen[k] {
			t.Fatalf("Mw stratum %d hit twice", k)
		}
		seen[k] = true
	}
	// Determinism.
	again := LatinHypercube(n, 3, r)
	for i := range scs {
		if scs[i] != again[i] {
			t.Fatal("same seed produced different ensemble")
		}
	}
	if LatinHypercube(n, 4, r)[0] == scs[0] {
		t.Fatal("different seed produced identical first member")
	}
}

func TestScenarioKeyAndClass(t *testing.T) {
	a := Scenario{Mw: 6.5, HypoX: 0.5, HypoY: 0.5, HypoZ: 0.5, VsScale: 1}
	b := a
	if a.Key() != b.Key() {
		t.Fatal("identical scenarios differ in key")
	}
	b.Mw += 0.001
	if a.Key() == b.Key() {
		t.Fatal("different scenarios share a key")
	}
	if (Scenario{Mw: 5.9}).Class() != "M<6" ||
		(Scenario{Mw: 6.5}).Class() != "M6-7" ||
		(Scenario{Mw: 7.2}).Class() != "M7+" {
		t.Fatal("class bands wrong")
	}
}
