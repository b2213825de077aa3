package transient

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// SyncPoint is one sample of the detector-gating study: the sampling
// offset within the bit slot and the resulting bit-error rate.
type SyncPoint struct {
	// OffsetS is the detector sampling instant relative to the slot
	// start.
	OffsetS float64
	// BER is the measured error rate at that offset.
	BER float64
	// InPulse reports whether the offset falls inside the pump pulse
	// window.
	InPulse bool
}

// syncLevels is the static part of the sweep: the worst-case pattern
// levels inside and outside the pulse window, the decision threshold,
// and the timing windows shared by the parallel path and its serial
// oracle.
type syncLevels struct {
	bitT, pulseT                   float64
	oneIn, zeroIn, oneOut, zeroOut float64
	threshold                      float64
}

func (s *Simulator) syncLevels() syncLevels {
	c := s.Unit.Circuit
	p := c.P
	l := syncLevels{bitT: p.BitPeriodS(), pulseT: p.PulseWidthS}
	if l.pulseT <= 0 || l.pulseT > l.bitT {
		l.pulseT = l.bitT
	}

	n := p.Order
	_, worst := c.WorstCaseDelta()
	onePattern := make([]int, n+1)
	onePattern[worst] = 1
	zeroPattern := make([]int, n+1)
	for i := range zeroPattern {
		if i != worst {
			zeroPattern[i] = 1
		}
	}
	// In-pulse levels: filter tuned to the worst channel.
	l.oneIn = c.ReceivedPowerMW(worst, onePattern)
	l.zeroIn = c.ReceivedPowerMW(worst, zeroPattern)
	// Out-of-pulse levels: filter relaxed to λref (no pump). The
	// drop port then sits FilterOffset away from the top channel.
	l.oneOut = s.relaxedPower(onePattern)
	l.zeroOut = s.relaxedPower(zeroPattern)
	l.threshold = (l.oneIn + l.zeroIn) / 2
	return l
}

// point measures offset k of a `points`-offset sweep with `bits`
// transmitted pattern pairs, drawing noise from g in slot order in
// 64-sample blocks (Gaussian.FillScaled consumes g exactly as per-slot
// draws would, so block size does not affect the error count).
func (l syncLevels) point(k, points, bits int, g *Gaussian, sigma float64) SyncPoint {
	// Sample at slot midpoints so the window classification is
	// unambiguous at the boundaries.
	off := l.bitT * (float64(k) + 0.5) / float64(points)
	inPulse := off < l.pulseT
	oneLvl, zeroLvl := l.oneOut, l.zeroOut
	if inPulse {
		oneLvl, zeroLvl = l.oneIn, l.zeroIn
	}
	errs := 0
	var noise [64]float64
	for t := 0; t < bits; t += 64 {
		nb := min(64, bits-t)
		g.FillScaled(noise[:nb], sigma)
		for i := 0; i < nb; i++ {
			errs += l.slotError(t+i, oneLvl, zeroLvl, noise[i])
		}
	}
	return SyncPoint{
		OffsetS: off,
		BER:     float64(errs) / float64(bits),
		InPulse: inPulse,
	}
}

// slotError returns 1 when slot t decides wrongly: even slots carry
// the '1' level, odd slots the '0' level.
func (l syncLevels) slotError(t int, oneLvl, zeroLvl, noiseMW float64) int {
	lvl, want := oneLvl, 1
	if t%2 != 0 {
		lvl, want = zeroLvl, 0
	}
	got := 0
	if lvl+noiseMW > l.threshold {
		got = 1
	}
	if got != want {
		return 1
	}
	return 0
}

// syncSalt separates the per-offset noise seed stream of SyncSweep
// from the batch trial streams derived from the same simulator seed.
const syncSalt = 0x6A09E667F3BCC908

// offsetNoise returns offset k's noise generator, derived from the
// simulator's base seed and k only.
func (s *Simulator) offsetNoise(k int) *Gaussian {
	return NewGaussian(stochastic.NewSplitMix64(stochastic.DeriveSeed(s.seed^syncSalt, k)))
}

// SyncSweepOn quantifies the synchronization requirement the paper's
// §V.D raises for pulse-based pumps: the filter is only tuned while
// the 26 ps pulse is present, so a detector sampling outside the
// pulse window sees the relaxed (untuned) filter and the computation
// fails. The sweep measures the worst-case BER at `points` sampling
// offsets across one bit slot, with `bits` transmitted pattern pairs
// per offset.
//
// Inside the pulse window the received level carries the selected
// channel's power; outside it the filter rests at λref, where no
// probe channel aligns, so the '1' level collapses onto the '0'
// level and the BER rises toward 0.5.
//
// Offsets are independent work items dispatched on the given engine,
// each drawing block Gaussian noise from a generator seeded by the
// simulator's seed and the offset index alone, so the sweep is
// bit-identical on every conforming engine and deterministic on any
// core count. It does not advance the simulator's serial noise
// stream. A nil engine panics (this entry point has no error return).
func (s *Simulator) SyncSweepOn(e engine.Engine, points, bits int) []SyncPoint {
	engine.Use(e)
	if points < 2 {
		points = 2
	}
	l := s.syncLevels()
	sigma := s.SigmaMW
	out := make([]SyncPoint, points)
	e.For(points, func(k int) {
		out[k] = l.point(k, points, bits, s.offsetNoise(k), sigma)
	})
	return out
}

// relaxedPower returns the received power with the filter at its
// cold resonance (pump off).
func (s *Simulator) relaxedPower(z []int) float64 {
	c := s.Unit.Circuit
	sum := 0.0
	for i := range z {
		sum += c.P.ProbePowerMW * c.ProbeTransmission(i, z, 0)
	}
	return sum
}

// String implements fmt.Stringer.
func (p SyncPoint) String() string {
	where := "outside pulse"
	if p.InPulse {
		where = "inside pulse"
	}
	return fmt.Sprintf("offset %6.1f ps: BER %.3g (%s)", p.OffsetS*1e12, p.BER, where)
}

// WorstInPulseBER and WorstOutOfPulseBER summarize a sweep.
func WorstInPulseBER(pts []SyncPoint) float64 {
	worst := 0.0
	for _, p := range pts {
		if p.InPulse && p.BER > worst {
			worst = p.BER
		}
	}
	return worst
}

// WorstOutOfPulseBER returns the best (lowest) BER outside the pulse
// window — if even the best out-of-pulse offset is terrible, gating
// is mandatory.
func WorstOutOfPulseBER(pts []SyncPoint) float64 {
	best := math.Inf(1)
	any := false
	for _, p := range pts {
		if !p.InPulse {
			any = true
			if p.BER < best {
				best = p.BER
			}
		}
	}
	if !any {
		return 0
	}
	return best
}
