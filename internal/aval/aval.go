// Package aval implements the automated verification toolkit of §III.H:
// acceptance testing of code updates by least-squares (L2) comparison of
// waveforms against reference solutions, plus an independently written
// second-order reference solver used for the multi-code verification of
// Fig. 3 (three codes, nearly identical PGVs on the same scenario).
package aval

import (
	"fmt"
	"math"
)

// L2Misfit returns the normalized least-squares misfit between two
// three-component waveforms: ||a-b|| / ||b||, the §III.H acceptance
// metric. It returns +Inf for length mismatches.
func L2Misfit(got, ref [][3]float32) float64 {
	if len(got) != len(ref) {
		return math.Inf(1)
	}
	var num, den float64
	for n := range ref {
		for c := 0; c < 3; c++ {
			d := float64(got[n][c]) - float64(ref[n][c])
			num += d * d
			den += float64(ref[n][c]) * float64(ref[n][c])
		}
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// CrossCodeTolerance is the acceptance threshold when comparing
// independent discretizations (4th-order vs 2nd-order on a resolved
// problem), per the Fig. 3 "nearly identical" standard.
const CrossCodeTolerance = 0.15

// Report is the outcome of one acceptance test.
type Report struct {
	Name      string
	Misfit    float64
	Tolerance float64
	Pass      bool
}

// Check builds a report.
func Check(name string, got, ref [][3]float32, tol float64) Report {
	m := L2Misfit(got, ref)
	return Report{Name: name, Misfit: m, Tolerance: tol, Pass: m <= tol}
}

func (r Report) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s: misfit %.3e (tol %.3e) %s", r.Name, r.Misfit, r.Tolerance, status)
}
