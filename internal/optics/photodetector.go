package optics

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// Photodetector converts received optical power into photocurrent
// with responsivity R (A/W) against an internal noise current i_n
// (A). These are the R and i_n of the paper's Eq. (8); their ratio is
// the only quantity the SNR depends on.
type Photodetector struct {
	// ResponsivityAPerW is the conversion gain R in amperes per watt.
	ResponsivityAPerW float64
	// NoiseCurrentA is the RMS internal noise current i_n in amperes.
	NoiseCurrentA float64
}

// Validate reports whether the detector parameters are physical.
func (p Photodetector) Validate() error {
	if !(p.ResponsivityAPerW > 0) || math.IsInf(p.ResponsivityAPerW, 1) {
		return fmt.Errorf("optics: detector responsivity %g A/W not positive and finite", p.ResponsivityAPerW)
	}
	if !(p.NoiseCurrentA > 0) || math.IsInf(p.NoiseCurrentA, 1) {
		return fmt.Errorf("optics: detector noise current %g A not positive and finite", p.NoiseCurrentA)
	}
	return nil
}

// CurrentA returns the photocurrent for a received power in mW.
func (p Photodetector) CurrentA(powerMW float64) float64 {
	return p.ResponsivityAPerW * MilliwattsToWatts(powerMW)
}

// SNR returns the electrical signal-to-noise ratio for a power
// difference deltaMW between the '1' and '0' levels, following the
// structure of the paper's Eq. (8): SNR = R·ΔP / i_n.
func (p Photodetector) SNR(deltaMW float64) float64 {
	return p.CurrentA(deltaMW) / p.NoiseCurrentA
}

// MinPowerForSNRMW inverts SNR: the received power difference (mW)
// needed to reach the target SNR.
func (p Photodetector) MinPowerForSNRMW(snr float64) float64 {
	return WattsToMilliwatts(snr * p.NoiseCurrentA / p.ResponsivityAPerW)
}

// BERFromSNR returns the on/off-keyed bit-error rate of the paper's
// Eq. (9): BER = 0.5 erfc(SNR / (2√2)).
func BERFromSNR(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return 0.5 * math.Erfc(snr/(2*math.Sqrt2))
}

// SNRForBER inverts Eq. (9): the SNR required to reach a target BER.
// Targets at or above 0.5 need no signal (returns 0).
func SNRForBER(ber float64) float64 {
	if ber >= 0.5 {
		return 0
	}
	return 2 * math.Sqrt2 * numeric.ErfcInv(2*ber)
}

// OOKDecider thresholds received power into bits, the optical
// de-randomizer primitive (§V.A associates power levels with data
// values).
type OOKDecider struct {
	// ThresholdMW is the decision threshold between the '0' and '1'
	// received power levels.
	ThresholdMW float64
}

// NewMidpointDecider places the threshold halfway between the worst
// '0' level (highest) and the worst '1' level (lowest).
func NewMidpointDecider(maxZeroMW, minOneMW float64) OOKDecider {
	return OOKDecider{ThresholdMW: (maxZeroMW + minOneMW) / 2}
}

// EyeOpeningMW returns the worst-case eye opening between the two
// power-level bands; non-positive means the eye is closed and
// error-free detection is impossible regardless of laser power.
func EyeOpeningMW(maxZeroMW, minOneMW float64) float64 {
	return minOneMW - maxZeroMW
}
