package optics

import "fmt"

// BandPassFilter models the pump-rejection band-pass filter placed
// before the photodetector (paper Fig. 3a and Fig. 4a). Probe
// wavelengths inside [CenterNM ± BandwidthNM/2] pass with the
// in-band insertion loss; everything else (notably the strong pump at
// λpump) is suppressed by the stop-band rejection.
//
// The paper neglects the BPF's effect on the pump in its transmission
// model; we model it explicitly so transient simulations can verify
// the residual pump leakage is negligible.
type BandPassFilter struct {
	CenterNM    float64
	BandwidthNM float64
	// InBandLossDB is the pass-band insertion loss (dB, positive).
	InBandLossDB float64
	// RejectionDB is the stop-band suppression (dB, positive).
	RejectionDB float64
}

// Validate reports whether the filter parameters are physical.
func (f BandPassFilter) Validate() error {
	if f.BandwidthNM <= 0 {
		return fmt.Errorf("optics: BPF bandwidth %g nm not positive", f.BandwidthNM)
	}
	if f.InBandLossDB < 0 || f.RejectionDB < 0 {
		return fmt.Errorf("optics: BPF losses must be >= 0 dB")
	}
	if f.RejectionDB < f.InBandLossDB {
		return fmt.Errorf("optics: BPF rejection %g dB below in-band loss %g dB", f.RejectionDB, f.InBandLossDB)
	}
	return nil
}

// Transmission returns the power transmission at lambdaNM.
func (f BandPassFilter) Transmission(lambdaNM float64) float64 {
	half := f.BandwidthNM / 2
	if lambdaNM >= f.CenterNM-half && lambdaNM <= f.CenterNM+half {
		return LossToLinear(f.InBandLossDB)
	}
	return LossToLinear(f.RejectionDB)
}

// String implements fmt.Stringer.
func (f BandPassFilter) String() string {
	return fmt.Sprintf("BPF(center %.2fnm, bw %.2fnm, loss %.1fdB, rejection %.0fdB)",
		f.CenterNM, f.BandwidthNM, f.InBandLossDB, f.RejectionDB)
}
