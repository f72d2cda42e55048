package cpu

import "testing"

// TestFeatureNamesWhyAbsent: an absent feature names the clear bit, a
// present one names nothing.
func TestFeatureNamesWhyAbsent(t *testing.T) {
	t.Logf("AVX2: %v %s", AVX2.Has, AVX2.Why)
	if AVX2.Has == (AVX2.Why != "") {
		t.Errorf("AVX2: Has %v with reason %q", AVX2.Has, AVX2.Why)
	}
}
