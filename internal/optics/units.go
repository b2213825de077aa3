package optics

import "repro/internal/numeric"

// CBandCenterNM is the conventional-band reference wavelength used
// throughout the paper's experiments (λ2 = 1550 nm).
const CBandCenterNM = 1550.0

// LossToLinear converts a positive insertion-loss figure in dB to the
// transmitted power fraction: LossToLinear(4.5) ≈ 0.3548, the IL% of
// the paper's reference MZI [10].
func LossToLinear(lossDB float64) float64 {
	return numeric.DBToLinear(-lossDB)
}

// ExtinctionToLinear converts a positive extinction ratio in dB to
// the OFF/ON power fraction ER%: ExtinctionToLinear(13.22) ≈ 0.0476.
func ExtinctionToLinear(erDB float64) float64 {
	return numeric.DBToLinear(-erDB)
}

// MilliwattsToWatts converts mW to W.
func MilliwattsToWatts(mw float64) float64 { return mw * 1e-3 }

// WattsToMilliwatts converts W to mW.
func WattsToMilliwatts(w float64) float64 { return w * 1e3 }

// EnergyJ returns the energy in joules of a constant power (mW)
// applied for the given duration (s).
func EnergyJ(powerMW, durationS float64) float64 {
	return MilliwattsToWatts(powerMW) * durationS
}

// EnergyPJ returns the same energy expressed in picojoules, the unit
// of the paper's Fig. 7.
func EnergyPJ(powerMW, durationS float64) float64 {
	return EnergyJ(powerMW, durationS) * 1e12
}
