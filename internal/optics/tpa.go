package optics

// OTETuner is the linearized all-optical tuning model used by the
// paper's Eq. (7a): the filter resonance blue-shifts proportionally
// to the injected pump power, with slope OTE (optical tuning
// efficiency, nm/mW). The paper adopts 0.1 nm per 10 mW from the
// GaAs-AlGaAs measurement of Van et al. [14].
type OTETuner struct {
	// OTENMPerMW is the resonance shift per unit pump power.
	OTENMPerMW float64
}

// ShiftNM returns the resonance blue-shift for the given pump power.
func (t OTETuner) ShiftNM(pumpMW float64) float64 {
	if pumpMW < 0 {
		return 0
	}
	return t.OTENMPerMW * pumpMW
}

// PowerForShiftMW inverts ShiftNM: the pump power needed to produce a
// given blue-shift. This is the core of the MRR-first pump-power
// sizing (§V.A).
func (t OTETuner) PowerForShiftMW(shiftNM float64) float64 {
	if shiftNM <= 0 {
		return 0
	}
	return shiftNM / t.OTENMPerMW
}

// PaperOTE is the tuner with the paper's assumed efficiency:
// 0.1 nm / 10 mW = 0.01 nm/mW.
var PaperOTE = OTETuner{OTENMPerMW: 0.01}
