package core

import (
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/optics"
)

// MRRFirstSpec is the input to the MRR-first design method (§IV.B):
// the micro-ring side of the system is fixed (resonances from the
// wavelength plan, ring shapes, Δλ, OTE) and the method derives the
// minimum probe power for a BER target, the minimum pump power that
// can sweep the filter across the whole comb, and the MZI extinction
// ratio that parks the filter on the top channel.
type MRRFirstSpec struct {
	Order          int
	WLSpacingNM    float64
	LambdaMaxNM    float64 // λ_n; defaults to 1550 nm
	FilterOffsetNM float64 // λref − λ_n; defaults to 0.1 nm
	DeltaLambdaNM  float64 // defaults to 0.1 nm
	ModShape       RingShape
	FilterShape    RingShape
	OTE            optics.OTETuner // defaults to the paper's 0.01 nm/mW
	MZIILdB        float64         // insertion loss of the chosen MZI; defaults to 4.5 dB [10]
	TargetBER      float64         // defaults to 1e-6
	Detector       optics.Photodetector
	BitRateGbps    float64 // defaults to 1
	PulseWidthS    float64 // defaults to 26 ps
	LasingEff      float64 // defaults to 0.2
}

func (s *MRRFirstSpec) applyDefaults() {
	if s.LambdaMaxNM == 0 {
		s.LambdaMaxNM = optics.CBandCenterNM
	}
	if s.FilterOffsetNM == 0 {
		s.FilterOffsetNM = 0.1
	}
	if s.DeltaLambdaNM == 0 {
		s.DeltaLambdaNM = 0.1
	}
	if s.ModShape == (RingShape{}) {
		s.ModShape = DenseModulatorShape()
	}
	if s.FilterShape == (RingShape{}) {
		s.FilterShape = DenseFilterShape()
	}
	if s.OTE.OTENMPerMW == 0 {
		s.OTE = optics.PaperOTE
	}
	if s.MZIILdB == 0 {
		s.MZIILdB = 4.5
	}
	if s.TargetBER == 0 {
		s.TargetBER = 1e-6
	}
	if s.Detector == (optics.Photodetector{}) {
		s.Detector = DefaultDetector()
	}
	if s.BitRateGbps == 0 {
		s.BitRateGbps = 1
	}
	if s.PulseWidthS == 0 {
		s.PulseWidthS = optics.PaperPulseWidthS
	}
	if s.LasingEff == 0 {
		s.LasingEff = optics.PaperLasingEfficiency
	}
}

// MRRFirst runs the MRR-first method and returns a fully sized
// parameter set:
//
//  1. probe wavelengths λ_i from WLspacing (Eq. 5);
//  2. minimum probe power for the BER target from the worst-case
//     margin of Eq. (8);
//  3. minimum pump power to reach λ_0: the full-comb shift
//     (λref − λ_0) through n constructive MZIs transmitting IL%:
//     OPpump = (λref − λ_0) / (OTE · IL%);
//  4. extinction ratio parking the filter at λ_n when all MZIs are
//     destructive: ER% = FilterOffset / (OPpump · OTE · IL%).
func MRRFirst(spec MRRFirstSpec) (Params, error) {
	spec.applyDefaults()
	if spec.Order < 1 {
		return Params{}, fmt.Errorf("core: MRRFirst order %d < 1", spec.Order)
	}
	if !(spec.WLSpacingNM > 0) || math.IsInf(spec.WLSpacingNM, 1) {
		return Params{}, fmt.Errorf("core: MRRFirst spacing %g nm not positive and finite", spec.WLSpacingNM)
	}
	if err := checkTargetBER("MRRFirst", spec.TargetBER); err != nil {
		return Params{}, err
	}

	il := optics.LossToLinear(spec.MZIILdB)
	fullShift := spec.FilterOffsetNM + float64(spec.Order)*spec.WLSpacingNM
	pump := spec.OTE.PowerForShiftMW(fullShift) / il
	erFrac := spec.FilterOffsetNM / (pump * spec.OTE.OTENMPerMW * il)
	if !(erFrac > 0 && erFrac < 1) {
		return Params{}, fmt.Errorf("core: MRRFirst derived ER%% = %g outside (0,1)", erFrac)
	}
	erDB := -numeric.LinearToDB(erFrac)

	p := Params{
		Order:            spec.Order,
		WLSpacingNM:      spec.WLSpacingNM,
		LambdaMaxNM:      spec.LambdaMaxNM,
		FilterOffsetNM:   spec.FilterOffsetNM,
		DeltaLambdaNM:    spec.DeltaLambdaNM,
		MZI:              optics.MZI{ILdB: spec.MZIILdB, ERdB: erDB},
		ModShape:         spec.ModShape,
		FilterShape:      spec.FilterShape,
		OTE:              spec.OTE,
		PumpPowerMW:      pump,
		Detector:         spec.Detector,
		BitRateGbps:      spec.BitRateGbps,
		PulseWidthS:      spec.PulseWidthS,
		LasingEfficiency: spec.LasingEff,
	}
	p.ProbePowerMW = 1 // provisional; replaced by the BER-sized minimum
	c, err := NewCircuit(p)
	if err != nil {
		return Params{}, err
	}
	probe := c.MinProbePowerMW(spec.TargetBER)
	if math.IsInf(probe, 1) {
		return Params{}, fmt.Errorf("core: MRRFirst eye closed at spacing %g nm (order %d)", spec.WLSpacingNM, spec.Order)
	}
	p.ProbePowerMW = probe
	return p, nil
}

// MZIFirstSpec is the input to the MZI-first design method (§IV.B):
// the pump laser and the MZI device are fixed and the method derives
// the probe wavelength plan from the achievable filter shifts, then
// sizes the probe lasers for the BER target.
type MZIFirstSpec struct {
	Order         int
	MZI           optics.MZI // IL and ER given by the chosen device
	PumpPowerMW   float64
	LambdaRefNM   float64 // filter cold resonance; defaults to 1550.1 nm
	DeltaLambdaNM float64
	ModShape      RingShape
	FilterShape   RingShape
	OTE           optics.OTETuner
	TargetBER     float64
	Detector      optics.Photodetector
	BitRateGbps   float64
	PulseWidthS   float64
	LasingEff     float64
}

func (s *MZIFirstSpec) applyDefaults() {
	if s.LambdaRefNM == 0 {
		s.LambdaRefNM = optics.CBandCenterNM + 0.1
	}
	if s.DeltaLambdaNM == 0 {
		s.DeltaLambdaNM = 0.1
	}
	if s.ModShape == (RingShape{}) {
		s.ModShape = DenseModulatorShape()
	}
	if s.FilterShape == (RingShape{}) {
		s.FilterShape = DenseFilterShape()
	}
	if s.OTE.OTENMPerMW == 0 {
		s.OTE = optics.PaperOTE
	}
	if s.TargetBER == 0 {
		s.TargetBER = 1e-6
	}
	if s.Detector == (optics.Photodetector{}) {
		s.Detector = DefaultDetector()
	}
	if s.BitRateGbps == 0 {
		s.BitRateGbps = 1
	}
	if s.PulseWidthS == 0 {
		s.PulseWidthS = optics.PaperPulseWidthS
	}
	if s.LasingEff == 0 {
		s.LasingEff = optics.PaperLasingEfficiency
	}
}

// MZIFirst runs the MZI-first method. The filter shift for data
// weight k through n MZIs with insertion loss IL% and extinction
// ratio ER% is
//
//	shift(k) = OPpump · OTE · IL% · ((n−k) + k·ER%) / n
//
// which is linear in k, so the derived probe comb λ_k = λref −
// shift(k) is uniform with spacing OPpump·OTE·IL%·(1−ER%)/n and the
// filter offset is λref − λ_n = OPpump·OTE·IL%·ER%. The probe lasers
// are then sized for the BER target.
func MZIFirst(spec MZIFirstSpec) (Params, error) {
	spec.applyDefaults()
	if spec.Order < 1 {
		return Params{}, fmt.Errorf("core: MZIFirst order %d < 1", spec.Order)
	}
	if !(spec.PumpPowerMW > 0) || math.IsInf(spec.PumpPowerMW, 1) {
		return Params{}, fmt.Errorf("core: MZIFirst pump power %g mW not positive and finite", spec.PumpPowerMW)
	}
	if err := spec.MZI.Validate(); err != nil {
		return Params{}, err
	}
	if err := checkTargetBER("MZIFirst", spec.TargetBER); err != nil {
		return Params{}, err
	}

	il := spec.MZI.ILFraction()
	er := spec.MZI.ERFraction()
	n := float64(spec.Order)
	spacing := spec.PumpPowerMW * spec.OTE.OTENMPerMW * il * (1 - er) / n
	offset := spec.PumpPowerMW * spec.OTE.OTENMPerMW * il * er
	if !(spacing > 0) {
		return Params{}, fmt.Errorf("core: MZIFirst derived spacing %g nm not positive", spacing)
	}

	p := Params{
		Order:            spec.Order,
		WLSpacingNM:      spacing,
		LambdaMaxNM:      spec.LambdaRefNM - offset,
		FilterOffsetNM:   offset,
		DeltaLambdaNM:    spec.DeltaLambdaNM,
		MZI:              spec.MZI,
		ModShape:         spec.ModShape,
		FilterShape:      spec.FilterShape,
		OTE:              spec.OTE,
		PumpPowerMW:      spec.PumpPowerMW,
		Detector:         spec.Detector,
		BitRateGbps:      spec.BitRateGbps,
		PulseWidthS:      spec.PulseWidthS,
		LasingEfficiency: spec.LasingEff,
	}
	p.ProbePowerMW = 1
	c, err := NewCircuit(p)
	if err != nil {
		return Params{}, err
	}
	probe := c.MinProbePowerMW(spec.TargetBER)
	if math.IsInf(probe, 1) {
		return Params{}, fmt.Errorf("core: MZIFirst eye closed for %v at %g mW pump", spec.MZI, spec.PumpPowerMW)
	}
	p.ProbePowerMW = probe
	return p, nil
}

// checkTargetBER rejects a BER target outside (0, 0.5): at 0.5 a
// detector decides no better than a coin, and Eq. (9) has no SNR to
// size the probes for.
func checkTargetBER(method string, ber float64) error {
	if !(ber > 0 && ber < 0.5) {
		return fmt.Errorf("core: %s BER target %g outside (0, 0.5)", method, ber)
	}
	return nil
}

// AlignmentErrorNM returns the largest distance between the filter
// resonance in any data state and its intended probe channel — a
// design-validity diagnostic. Both design methods produce exactly
// aligned combs (the shift is linear in the data weight), so this is
// ~0 for their outputs and grows when a user perturbs pump power or
// ER by hand.
func (c *Circuit) AlignmentErrorNM() float64 {
	worst := 0.0
	for w := 0; w <= c.P.Order; w++ {
		res := c.FilterResonanceNM(w)
		want := c.P.Lambda(c.SelectedChannel(w))
		if e := math.Abs(res - want); e > worst {
			worst = e
		}
	}
	return worst
}

// ThroughputBitsPerSec returns the output sample rate of the unit for
// a given stream length: bit rate / length.
func (p Params) ThroughputBitsPerSec(streamLen int) float64 {
	if streamLen < 1 {
		streamLen = 1
	}
	return p.BitRateGbps * 1e9 / float64(streamLen)
}
