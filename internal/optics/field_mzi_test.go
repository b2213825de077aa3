package optics_test

import (
	"fmt"
	"math"
)

// MZI is a Mach–Zehnder interferometer: an input coupler, two lossy
// phase arms, and an output coupler. The modulated output is the
// *cross* port, which peaks for equal arm phases and extinguishes at
// a π difference; a finite extinction ratio arises physically from
// coupler imbalance and/or arm loss imbalance, both of which this
// model carries.
type MZI struct {
	C1, C2 Coupler
	// Arm1Amplitude and Arm2Amplitude are the field transmissions of
	// the two arms; the drive phase is applied to arm 1.
	Arm1Amplitude float64
	Arm2Amplitude float64
}

// NewMZI builds an interferometer with 50:50 couplers and the given
// arm amplitudes — the arm-imbalance extinction mechanism.
func NewMZI(a1, a2 float64) (MZI, error) {
	if a1 <= 0 || a1 > 1 || a2 <= 0 || a2 > 1 {
		return MZI{}, fmt.Errorf("field model: arm amplitudes (%g, %g) outside (0,1]", a1, a2)
	}
	return MZI{C1: Splitter5050, C2: Splitter5050, Arm1Amplitude: a1, Arm2Amplitude: a2}, nil
}

// FromILER constructs an interferometer whose cross-port intensity
// matches a behavioural device with the given insertion loss and
// extinction ratio (linear fractions il ∈ (0,1], er ∈ [0,1)) at
// every drive phase.
//
// With lossless arms and couplers (t1, κ1), (t2, κ2) the cross field
// is i(κ2·t1·e^{iφ} + t2·κ1), so with u = κ2t1 and v = t2κ1:
//
//	cross(0) = (u+v)² = il      cross(π) = (u−v)² = il·er
//
// giving u = (√il + √(il·er))/2, v = (√il − √(il·er))/2. The coupler
// split then solves the quadratic s² − s(1−u²+v²) + v² = 0 for
// s = t2², which has a real root in (0,1) whenever u+v ≤ 1 — i.e.
// for every physical (il, er).
func FromILER(il, er float64) (MZI, error) {
	if il <= 0 || il > 1 {
		return MZI{}, fmt.Errorf("field model: insertion-loss fraction %g outside (0,1]", il)
	}
	if er < 0 || er >= 1 {
		return MZI{}, fmt.Errorf("field model: extinction fraction %g outside [0,1)", er)
	}
	u := (math.Sqrt(il) + math.Sqrt(il*er)) / 2
	v := (math.Sqrt(il) - math.Sqrt(il*er)) / 2
	b := 1 - u*u + v*v
	disc := b*b - 4*v*v
	if disc < 0 {
		disc = 0 // u+v <= 1 guarantees disc >= 0 up to rounding
	}
	s := (b + math.Sqrt(disc)) / 2 // t2², the more balanced root
	if s <= 0 || s >= 1 {
		return MZI{}, fmt.Errorf("field model: no physical coupler split for il=%g er=%g", il, er)
	}
	t2 := math.Sqrt(s)
	t1 := u / math.Sqrt(1-s)
	if t1 <= 0 || t1 > 1 {
		return MZI{}, fmt.Errorf("field model: derived t1 = %g unphysical", t1)
	}
	c1, err := NewCoupler(t1)
	if err != nil {
		return MZI{}, err
	}
	c2, err := NewCoupler(t2)
	if err != nil {
		return MZI{}, err
	}
	return MZI{C1: c1, C2: c2, Arm1Amplitude: 1, Arm2Amplitude: 1}, nil
}

// fields propagates a unit input through coupler, arms, coupler and
// returns both output fields.
func (m MZI) fields(phi float64) (bar, cross complex128) {
	up, low := m.C1.Scatter(1, 0)
	up = Arm{Amplitude: m.Arm1Amplitude, PhaseRad: phi}.Propagate(up)
	low = Arm{Amplitude: m.Arm2Amplitude}.Propagate(low)
	return m.C2.Scatter(up, low)
}

// CrossAmplitude returns the modulated (cross) output field for a
// drive phase.
func (m MZI) CrossAmplitude(phi float64) complex128 {
	_, cross := m.fields(phi)
	return cross
}

// BarAmplitude returns the complementary (bar) output field.
func (m MZI) BarAmplitude(phi float64) complex128 {
	bar, _ := m.fields(phi)
	return bar
}

// CrossIntensity returns the modulated power transmission.
func (m MZI) CrossIntensity(phi float64) float64 {
	return intensity(m.CrossAmplitude(phi))
}

// BarIntensity returns the complementary power transmission.
func (m MZI) BarIntensity(phi float64) float64 {
	return intensity(m.BarAmplitude(phi))
}

// TotalOutput returns the summed output power: 1 for lossless arms
// (the couplers are unitary); otherwise the coupler-weighted arm
// loss.
func (m MZI) TotalOutput(phi float64) float64 {
	return m.CrossIntensity(phi) + m.BarIntensity(phi)
}

func intensity(e complex128) float64 {
	return real(e)*real(e) + imag(e)*imag(e)
}
