package core

import (
	"math"
	"sync"

	"repro/internal/optics"
)

// ChannelDelta returns the inner bracket of the paper's Eq. (8) for
// channel i: the transmission of probe i sent as '1' (all other
// coefficients '0') minus the summed crosstalk of every other probe w
// sent as '1' (with z_i = 0), all evaluated with the filter tuned to
// select channel i. The one-hot transmissions resolve from the shared
// per-device factor cache, bit-identical to the direct enumeration
// (channelDeltaDirect in the tests).
func (c *Circuit) ChannelDelta(i int) float64 {
	f := c.factors()
	sig := c.transmissionByMask(f, i, i, 1<<i)
	xtalk := 0.0
	for w := 0; w <= c.P.Order; w++ {
		if w == i {
			continue
		}
		xtalk += c.transmissionByMask(f, w, i, 1<<w)
	}
	return sig - xtalk
}

// WorstCaseDelta returns min_i ChannelDelta(i) and the index
// achieving it — the worst-case transmission margin of Eq. (8). The
// scan is cached: SNR, BER, probe sizing and the transient worst-case
// patterns all share one computation per circuit.
func (c *Circuit) WorstCaseDelta() (delta float64, channel int) {
	c.deltaOnce.Do(func() {
		c.delta = math.Inf(1)
		for i := 0; i <= c.P.Order; i++ {
			if d := c.ChannelDelta(i); d < c.delta {
				c.delta, c.deltaCh = d, i
			}
		}
	})
	return c.delta, c.deltaCh
}

// SNR evaluates Eq. (8): (R/i_n) · OPprobe · min_i ChannelDelta(i),
// the worst-case electrical signal-to-noise ratio. A non-positive
// margin returns 0 (the eye is closed).
func (c *Circuit) SNR() float64 {
	delta, _ := c.WorstCaseDelta()
	if delta <= 0 {
		return 0
	}
	return c.P.Detector.SNR(c.P.ProbePowerMW * delta)
}

// BER evaluates Eq. (9) for the circuit's worst-case SNR.
func (c *Circuit) BER() float64 {
	return optics.BERFromSNR(c.SNR())
}

// MinProbePowerMW returns the smallest per-laser probe power reaching
// the target BER, inverting Eqs. (8)–(9). It returns +Inf when the
// worst-case margin is non-positive (no power suffices).
func (c *Circuit) MinProbePowerMW(targetBER float64) float64 {
	delta, _ := c.WorstCaseDelta()
	if delta <= 0 {
		return math.Inf(1)
	}
	snr := optics.SNRForBER(targetBER)
	return c.P.Detector.MinPowerForSNRMW(snr) / delta
}

// WorstCaseDeltaOverZ is the robustness extension discussed in
// DESIGN.md: instead of Eq. (8)'s fixed one-hot crosstalk pattern it
// searches all 2^n coefficient patterns for the smallest separation
// between the selected channel's '1' and '0' received powers, per
// filter state, normalized by the probe power. It lower-bounds
// ChannelDelta and is the margin the end-to-end unit actually sees.
//
//osclint:ignore testonly tests in core and the root ablation benchmark share it: the exhaustive margin reported beside Eq. 8's
func (c *Circuit) WorstCaseDeltaOverZ() float64 {
	pow := c.PowerTable()
	if pow == nil {
		return c.worstCaseDeltaOverZDirect()
	}
	n := c.P.Order
	worst := math.Inf(1)
	for weight := 0; weight <= n; weight++ {
		sel := c.SelectedChannel(weight)
		minOne := math.Inf(1)
		maxZero := math.Inf(-1)
		for pattern := 0; pattern < 1<<(n+1); pattern++ {
			p := pow[weight][pattern] / c.P.ProbePowerMW
			if pattern>>sel&1 == 1 {
				if p < minOne {
					minOne = p
				}
			} else if p > maxZero {
				maxZero = p
			}
		}
		if d := minOne - maxZero; d < worst {
			worst = d
		}
	}
	return worst
}

// worstCaseDeltaOverZDirect is the cache-free exhaustive margin — the
// retained oracle for the table-backed WorstCaseDeltaOverZ and its
// fallback beyond maxTableOrder.
func (c *Circuit) worstCaseDeltaOverZDirect() float64 {
	n := c.P.Order
	worst := math.Inf(1)
	z := make([]int, n+1)
	for weight := 0; weight <= n; weight++ {
		sel := c.SelectedChannel(weight)
		minOne := math.Inf(1)
		maxZero := math.Inf(-1)
		for pattern := 0; pattern < 1<<(n+1); pattern++ {
			for b := range z {
				z[b] = (pattern >> b) & 1
			}
			p := c.ReceivedPowerMW(weight, z) / c.P.ProbePowerMW
			if z[sel] == 1 {
				if p < minOne {
					minOne = p
				}
			} else if p > maxZero {
				maxZero = p
			}
		}
		if d := minOne - maxZero; d < worst {
			worst = d
		}
	}
	return worst
}

// detectorOnce guards the lazily calibrated default photodetector.
// (An explicit Once rather than sync.OnceValue: the calibration
// closure calls MZIFirst, whose defaulting path mentions
// DefaultDetector, which a package-level initializer would report as
// an initialization cycle even though the call never recurses.)
var (
	detectorOnce  sync.Once
	defaultDetVal optics.Photodetector
)

func calibrateDefaultDetector() optics.Photodetector {
	// Calibration anchor (§V.B / Fig. 6a): with the MZI of Xiao et
	// al. [19] (IL = 6.5 dB, ER = 7.5 dB), a 0.6 W pump and a 1e-6
	// BER target, the minimum probe power is 0.26 mW. Eq. (8) is
	// linear in R/i_n, so the anchor pins i_n/R exactly:
	//
	//	i_n/R = OPprobe · Δ / SNR(1e-6)
	//
	// where Δ is the worst-case margin of the MZI-first design at
	// that operating point (computed from the dense ring preset).
	const (
		anchorProbeMW = 0.26
		anchorBER     = 1e-6
	)
	dev := optics.MZI{ILdB: 6.5, ERdB: 7.5}
	// Placeholder detector: the margin does not depend on it.
	ph := optics.Photodetector{ResponsivityAPerW: 1, NoiseCurrentA: 1e-6}
	p, err := MZIFirst(MZIFirstSpec{
		Order:       2,
		MZI:         dev,
		PumpPowerMW: 600,
		TargetBER:   anchorBER,
		Detector:    ph,
	})
	if err != nil {
		panic("core: detector calibration failed: " + err.Error())
	}
	delta, _ := MustCircuit(p).WorstCaseDelta()
	if delta <= 0 {
		panic("core: detector calibration margin not positive")
	}
	snr := optics.SNRForBER(anchorBER)
	inOverR := anchorProbeMW * 1e-3 * delta / snr // in amperes per (A/W)
	return optics.Photodetector{ResponsivityAPerW: 1, NoiseCurrentA: inOverR}
}

// DefaultDetector returns the photodetector whose noise floor is
// calibrated so that the paper's Fig. 6(a) anchor holds exactly:
// IL = 6.5 dB, ER = 7.5 dB, 0.6 W pump, BER 1e-6 → 0.26 mW probe.
// Responsivity is normalized to 1 A/W; only the ratio i_n/R matters
// anywhere in the model.
func DefaultDetector() optics.Photodetector {
	detectorOnce.Do(func() { defaultDetVal = calibrateDefaultDetector() })
	return defaultDetVal
}
