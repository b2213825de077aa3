package optics_test

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Ring is an add-drop micro-ring built from two couplers and a lossy
// ring waveguide. Field conventions follow the standard add-drop
// analysis: the input bus couples through Coupler1, the ring
// circulates with single-pass amplitude A and phase θ, and the drop
// bus couples through Coupler2. Half the loop (amplitude √A, phase
// θ/2) lies between the couplers on either side.
type Ring struct {
	Coupler1 Coupler
	Coupler2 Coupler
	// A is the single-pass (full round-trip) field amplitude.
	A float64
}

// NewRing validates the composition.
func NewRing(t1, t2, a float64) (Ring, error) {
	c1, err := NewCoupler(t1)
	if err != nil {
		return Ring{}, fmt.Errorf("field model: input coupler: %w", err)
	}
	c2, err := NewCoupler(t2)
	if err != nil {
		return Ring{}, fmt.Errorf("field model: drop coupler: %w", err)
	}
	if a <= 0 || a > 1 {
		return Ring{}, fmt.Errorf("field model: round-trip amplitude %g outside (0,1]", a)
	}
	return Ring{Coupler1: c1, Coupler2: c2, A: a}, nil
}

// ThroughAmplitude returns the complex through-port field for a unit
// input at single-pass phase θ, using the closed-form sum of the
// internal feedback loop:
//
//	E_t = (t1 − t2·A·e^{iθ}) / (1 − t1·t2·A·e^{iθ})
func (r Ring) ThroughAmplitude(theta float64) complex128 {
	t1 := complex(r.Coupler1.T, 0)
	t2 := complex(r.Coupler2.T, 0)
	loop := complex(r.A, 0) * cmplx.Exp(complex(0, theta))
	return (t1 - t2*loop) / (1 - t1*t2*loop)
}

// DropAmplitude returns the complex drop-port field for a unit input:
//
//	E_d = −κ1·κ2·√A·e^{iθ/2} / (1 − t1·t2·A·e^{iθ})
func (r Ring) DropAmplitude(theta float64) complex128 {
	k1k2 := complex(-r.Coupler1.Kappa()*r.Coupler2.Kappa(), 0)
	half := cmplx.Rect(math.Sqrt(r.A), theta/2)
	t1 := complex(r.Coupler1.T, 0)
	t2 := complex(r.Coupler2.T, 0)
	loop := complex(r.A, 0) * cmplx.Exp(complex(0, theta))
	return k1k2 * half / (1 - t1*t2*loop)
}

// ThroughAmplitudeSeries computes the through field by explicitly
// summing `trips` round-trip contributions — the physical picture the
// closed form collapses: the directly transmitted field plus the
// field that couples in, circulates m times, and couples back out.
//
//	E_t = t1 + (iκ1)·(A e^{iθ})·(iκ1)·Σ_m (t1 t2 A e^{iθ})^m · t2/t1-ish
//
// Worked through the coupler conventions this is
//
//	E_t = t1 − κ1²·t2·A e^{iθ} · Σ_{m≥0} (t1 t2 A e^{iθ})^m
func (r Ring) ThroughAmplitudeSeries(theta float64, trips int) complex128 {
	t1 := complex(r.Coupler1.T, 0)
	t2 := complex(r.Coupler2.T, 0)
	k1 := r.Coupler1.Kappa()
	loop := complex(r.A, 0) * cmplx.Exp(complex(0, theta))
	sum := complex(0, 0)
	pow := complex(1, 0)
	for m := 0; m < trips; m++ {
		sum += pow
		pow *= t1 * t2 * loop
	}
	return t1 - complex(k1*k1, 0)*t2*loop*sum
}

// DropAmplitudeSeries is the round-trip expansion of the drop field.
func (r Ring) DropAmplitudeSeries(theta float64, trips int) complex128 {
	k1k2 := complex(-r.Coupler1.Kappa()*r.Coupler2.Kappa(), 0)
	half := cmplx.Rect(math.Sqrt(r.A), theta/2)
	t1 := complex(r.Coupler1.T, 0)
	t2 := complex(r.Coupler2.T, 0)
	loop := complex(r.A, 0) * cmplx.Exp(complex(0, theta))
	sum := complex(0, 0)
	pow := complex(1, 0)
	for m := 0; m < trips; m++ {
		sum += pow
		pow *= t1 * t2 * loop
	}
	return k1k2 * half * sum
}

// ThroughIntensity and DropIntensity are the power transmissions.
func (r Ring) ThroughIntensity(theta float64) float64 {
	e := r.ThroughAmplitude(theta)
	return real(e)*real(e) + imag(e)*imag(e)
}

// DropIntensity returns |E_d|².
func (r Ring) DropIntensity(theta float64) float64 {
	e := r.DropAmplitude(theta)
	return real(e)*real(e) + imag(e)*imag(e)
}
