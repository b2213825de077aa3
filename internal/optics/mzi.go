package optics

import (
	"fmt"
	"math"
)

// MZI models a 1x1 Mach–Zehnder interferometer modulator (paper
// Fig. 2a). The input power is split over two arms; an electro-optic
// phase shifter on one arm produces constructive (logic '0') or
// destructive (logic '1') interference at the output combiner.
//
// The device is characterized the way the silicon-photonics
// literature quotes it — by an insertion loss ILdB (power lost in the
// constructive state) and an extinction ratio ERdB (ON/OFF power
// ratio). Speed and phase-shifter length are carried along for the
// Fig. 6(c) device-comparison study.
type MZI struct {
	// ILdB is the insertion loss in dB (positive number). The
	// paper's reference modulator [10] has 4.5 dB.
	ILdB float64
	// ERdB is the extinction ratio in dB (positive number).
	ERdB float64
	// SpeedGbps is the maximum modulation speed in Gb/s (for
	// documentation and throughput studies; it does not affect the
	// static transmission).
	SpeedGbps float64
	// PhaseShifterLenMM is the phase-shifter length in millimetres
	// (area proxy used by Fig. 6c).
	PhaseShifterLenMM float64
}

// Validate reports whether the MZI parameters are physical.
func (m MZI) Validate() error {
	if !(m.ILdB >= 0) || math.IsInf(m.ILdB, 1) {
		return fmt.Errorf("optics: MZI insertion loss must be finite and >= 0 dB, got %g", m.ILdB)
	}
	if !(m.ERdB >= 0) || math.IsInf(m.ERdB, 1) {
		return fmt.Errorf("optics: MZI extinction ratio must be finite and >= 0 dB, got %g", m.ERdB)
	}
	return nil
}

// ILFraction returns the linear constructive-state transmission IL%.
func (m MZI) ILFraction() float64 { return LossToLinear(m.ILdB) }

// ERFraction returns the linear OFF/ON ratio ER%.
func (m MZI) ERFraction() float64 { return ExtinctionToLinear(m.ERdB) }

// Transmission returns the power transmission for a logic level,
// following the paper's Eq. (7b):
//
//	T(0) = IL%            (constructive interference)
//	T(1) = IL% * ER%      (destructive interference)
//
// Note the polarity: in the optical SC adder a data bit of '1' drives
// the MZI into its destructive state, attenuating the pump.
func (m MZI) Transmission(bit int) float64 {
	if bit == 0 {
		return m.ILFraction()
	}
	return m.ILFraction() * m.ERFraction()
}

// String implements fmt.Stringer with the conventional device
// shorthand used in the paper's Fig. 6.
func (m MZI) String() string {
	return fmt.Sprintf("MZI(IL=%.2fdB, ER=%.2fdB, %.0fGb/s, %.2fmm)",
		m.ILdB, m.ERdB, m.SpeedGbps, m.PhaseShifterLenMM)
}

// MZIBank is the parallel adder stage of the optical SC circuit: n
// MZIs fed equal fractions of the pump laser through a 1:n splitter
// and recombined by an n:1 combiner (paper Fig. 4a).
type MZIBank struct {
	Devices  []MZI
	Splitter Splitter
	Combiner Combiner
}

// NewUniformMZIBank builds a bank of n identical MZIs with ideal
// (lossless beyond 1/n) splitting and combining.
func NewUniformMZIBank(n int, dev MZI) *MZIBank {
	devs := make([]MZI, n)
	for i := range devs {
		devs[i] = dev
	}
	return &MZIBank{
		Devices:  devs,
		Splitter: Splitter{Ports: n},
		Combiner: Combiner{Ports: n},
	}
}

// Order returns the number of parallel MZIs (the polynomial degree n).
func (b *MZIBank) Order() int { return len(b.Devices) }

// Transmission returns the total pump power fraction reaching the
// filter for the data-bit vector x (paper Eq. 7a's summation term):
//
//	T(x) = (1/n) * sum_i T_MZIi(x_i)
//
// multiplied by any splitter/combiner excess loss. It panics if
// len(x) differs from the bank order, as that is a wiring error.
func (b *MZIBank) Transmission(x []int) float64 {
	if len(x) != len(b.Devices) {
		panic(fmt.Sprintf("optics: MZIBank of order %d driven with %d bits", len(b.Devices), len(x)))
	}
	sum := 0.0
	for i, dev := range b.Devices {
		sum += dev.Transmission(x[i])
	}
	n := float64(len(b.Devices))
	return sum / n * b.Splitter.ExcessLossFraction() * b.Combiner.ExcessLossFraction()
}

// TransmissionByWeight returns the bank transmission as a function of
// the number of '1' data bits only. All devices must be identical for
// this shortcut to equal Transmission; it exists because the optical
// SC multiplexer depends on x only through its Hamming weight.
func (b *MZIBank) TransmissionByWeight(ones int) float64 {
	n := len(b.Devices)
	if ones < 0 || ones > n {
		panic(fmt.Sprintf("optics: weight %d out of range for order %d", ones, n))
	}
	dev := b.Devices[0]
	sum := float64(n-ones)*dev.Transmission(0) + float64(ones)*dev.Transmission(1)
	return sum / float64(n) * b.Splitter.ExcessLossFraction() * b.Combiner.ExcessLossFraction()
}
