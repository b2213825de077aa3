package core

import (
	"math"
	"sync"

	"repro/internal/optics"
)

// channelDeltas returns the inner bracket of the paper's Eq. (8) for
// every channel i ≤ n: the transmission of probe i sent as '1' (all
// other coefficients '0') minus the summed crosstalk of every other
// probe w sent as '1' (with z_i = 0), all evaluated with the filter
// tuned to select channel i.
//
// Probe w's one-hot pattern 1<<w reads every modulator's bit-0 through
// factor except ring w's bit-1 one, and that ring product does not
// depend on the filter state, so it is formed once per probe, left to
// right as ProbeTransmission forms it, and then multiplied by each
// filter drop. When the power table has already built the factor cache
// the factors come from it; otherwise only the (n+1)² one-hot through
// factors and (n+1)² drops are evaluated, from the circuit's own
// devices, into stack arrays. Both give the floats of the direct
// enumeration (channelDeltaDirect in the tests).
func (c *Circuit) channelDeltas() (d [MaxOrder + 1]float64) {
	n1 := len(c.Modulators)
	var prod [MaxOrder + 1]float64               // prod[w]: probe w's ring product under 1<<w
	var drop [MaxOrder + 1][MaxOrder + 1]float64 // drop[w][i]: probe w's drop, filter at weight i
	if f := c.fact.Load(); f != nil {
		for w := 0; w < n1; w++ {
			t := 1.0
			for u := 0; u < n1; u++ {
				t *= f.thru[w*n1+u][oneHot(u, w)]
			}
			prod[w] = t
			copy(drop[w][:n1], f.drop[w*n1:])
		}
	} else {
		var ref [MaxOrder + 1]float64
		for i := 0; i < n1; i++ {
			ref[i] = c.P.LambdaRefNM() - c.FilterShiftNM(i)
		}
		for w := 0; w < n1; w++ {
			lam := c.P.Lambda(w)
			t := 1.0
			for u, ring := range c.Modulators {
				t *= ring.Through(lam, c.modResonance(u, oneHot(u, w)))
			}
			prod[w] = t
			for i := 0; i < n1; i++ {
				drop[w][i] = c.Filter.Drop(lam, ref[i])
			}
		}
	}
	// The conversions keep each product rounded before its add, as the
	// direct path rounds it.
	for i := 0; i < n1; i++ {
		xtalk := 0.0
		for w := 0; w < n1; w++ {
			if w != i {
				xtalk += float64(prod[w] * drop[w][i])
			}
		}
		d[i] = float64(prod[i]*drop[i][i]) - xtalk
	}
	return d
}

// oneHot is bit u of the one-hot pattern 1<<w.
func oneHot(u, w int) int {
	if u == w {
		return 1
	}
	return 0
}

// WorstCaseDelta returns the smallest inner bracket of Eq. (8) over
// the channels and the channel achieving it — the worst-case
// transmission margin. The scan is cached: SNR, BER, probe sizing and
// the transient worst-case patterns all share one computation per
// circuit.
func (c *Circuit) WorstCaseDelta() (delta float64, channel int) {
	c.deltaOnce.Do(func() {
		d := c.channelDeltas()
		c.delta = math.Inf(1)
		for i := 0; i <= c.P.Order; i++ {
			if d[i] < c.delta {
				c.delta, c.deltaCh = d[i], int32(i)
			}
		}
	})
	return c.delta, int(c.deltaCh)
}

// SNR evaluates Eq. (8): (R/i_n) · OPprobe · WorstCaseDelta,
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

// WorstCaseDeltaOverZ is a robustness extension of Eq. (8): instead
// of its fixed one-hot crosstalk pattern it searches all 2^(n+1)
// coefficient patterns for the smallest separation between the
// selected channel's '1' and '0' received powers, per filter state,
// normalized by the probe power. It lower-bounds every channel's
// Eq. (8) bracket and is the margin the end-to-end unit actually sees.
//
//osclint:ignore testonly tests in core and the root ablation benchmark share it: the exhaustive margin reported beside Eq. 8's
func (c *Circuit) WorstCaseDeltaOverZ() float64 {
	pow := c.PowerTable()
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
