package transient

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
)

// TracePoint is one time sample of the transient waveform.
type TracePoint struct {
	// TimeS is the absolute simulation time.
	TimeS float64
	// PumpMW is the pump laser's instantaneous optical power at the
	// source (a 26 ps pulse per bit slot for pulse-based designs).
	PumpMW float64
	// ReceivedMW is the noisy power at the photodetector.
	ReceivedMW float64
	// Gated reports whether the detector is being read at this
	// sample (within the pump pulse window, §V.D's synchronization
	// requirement).
	Gated bool
	// Bit is the decision taken in this sample's slot (constant over
	// the slot).
	Bit int
}

// traceGeom is the static slot geometry of a trace: bit and pulse
// windows, pump power and the sample count per slot.
type traceGeom struct {
	bitT, pulseT, pumpMW float64
	samplesPerBit        int
}

func (s *Simulator) traceGeom(samplesPerBit int) traceGeom {
	p := s.Unit.Circuit.P
	g := traceGeom{
		bitT:          p.BitPeriodS(),
		pulseT:        p.PulseWidthS,
		pumpMW:        p.PumpPowerMW,
		samplesPerBit: samplesPerBit,
	}
	if g.pulseT <= 0 || g.pulseT > g.bitT {
		g.pulseT = g.bitT // CW pump: gate the whole slot
	}
	return g
}

// appendSlot writes one slot's samplesPerBit waveform samples: the
// slot's decision bit, its noiseless received power, and one noise
// sample per time sample (noise[k] for sample k).
func (g traceGeom) appendSlot(out []TracePoint, slot, bit int, receivedMW float64, noise []float64) []TracePoint {
	slotStart := float64(slot) * g.bitT
	for k := 0; k < g.samplesPerBit; k++ {
		ts := slotStart + g.bitT*float64(k)/float64(g.samplesPerBit)
		inPulse := ts-slotStart < g.pulseT
		pt := TracePoint{
			TimeS: ts,
			Gated: inPulse,
			Bit:   bit,
		}
		if inPulse {
			pt.PumpMW = g.pumpMW
			pt.ReceivedMW = receivedMW + noise[k]
		} else {
			// Filter relaxed: only the residual floor reaches
			// the detector.
			pt.ReceivedMW = noise[k]
		}
		if pt.ReceivedMW < 0 {
			pt.ReceivedMW = 0
		}
		out = append(out, pt)
	}
	return out
}

// traceWalk runs the whole trace as one sequential walk: the unit
// decodes 64 cycles per SNG word draw (core.Unit.Cycles, received
// powers from the shared table) and the detector noise arrives in
// per-slot blocks (stochastic.Gaussian.FillScaled) — one decision sample plus
// samplesPerBit display samples per slot, consuming the noise stream
// exactly as per-slot draws would.
func (s *Simulator) traceWalk(x float64, bits, samplesPerBit int) ([]TracePoint, error) {
	g := s.traceGeom(samplesPerBit)
	threshold := s.Unit.ThresholdMW()
	out := make([]TracePoint, 0, bits*samplesPerBit)
	noise := make([]float64, 1+samplesPerBit)
	err := s.Unit.Cycles(x, bits, func(b, _, _ int, receivedMW float64) {
		// noise[0] is the slot's decision draw (Step's noiseMW in the
		// serial path); noise[1:] are the display samples.
		s.noise.FillScaled(noise, s.SigmaMW)
		bit := 0
		if receivedMW+noise[0] > threshold {
			bit = 1
		}
		out = g.appendSlot(out, b, bit, receivedMW, noise[1:])
	})
	if err != nil {
		// Unreachable today (bits >= 1, visitor non-nil), but
		// propagate rather than crash if Cycles grows error paths.
		return nil, err
	}
	return out, nil
}

// TraceCtx simulates `bits` slots at input probability x with
// samplesPerBit time samples each and returns the waveform. The pump
// fires at the start of each slot; detection is gated to the pulse
// window, after which the filter relaxes and the received power is
// meaningless for decision purposes (modeled as the signal decaying
// to the unselected floor).
//
// The trace consumes the simulator's single sequential noise stream,
// so it cannot fan out: the walk is dispatched as one work item on
// the given engine under ctx, and every conforming engine emits the
// identical waveform. A non-positive bit count is an error (an empty
// trace has no waveform), matching the length <= 0 contract of the
// evaluation entry points; samplesPerBit is clamped to at least 2; a
// nil engine is an error, and a ctx that fires before the walk starts
// surfaces a *engine.Partial.
func (s *Simulator) TraceCtx(ctx context.Context, e engine.Engine, x float64, bits, samplesPerBit int) ([]TracePoint, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if bits <= 0 {
		return nil, fmt.Errorf("transient: trace needs bits >= 1, got %d", bits)
	}
	if samplesPerBit < 2 {
		samplesPerBit = 2
	}
	var out []TracePoint
	var walkErr error
	if err := engine.RunCtx(ctx, e, 1, nil, func(int) {
		out, walkErr = s.traceWalk(x, bits, samplesPerBit)
	}); err != nil {
		return nil, err
	}
	return out, walkErr
}

// EyeStats summarizes the gated received-power samples of a run,
// grouped by the transmitted coefficient bit — the numerical
// equivalent of an eye diagram at the decision instant.
type EyeStats struct {
	Count0, Count1 int
	Mean0, Mean1   float64
	Sigma0, Sigma1 float64
	Max0, Min1     float64
	// OpeningMW is Min1 − Max0; non-positive means the eye closed in
	// this run.
	OpeningMW float64
}

// eyeAccum carries MeasureEyeCtx's running decision-instant
// statistics, fed one noisy sample per cycle in cycle order.
type eyeAccum struct {
	e                    EyeStats
	sum0, sum1, sq0, sq1 float64
}

func newEyeAccum() *eyeAccum {
	a := &eyeAccum{}
	a.e.Max0 = math.Inf(-1)
	a.e.Min1 = math.Inf(1)
	return a
}

// add records one cycle: the selected coefficient bit and the noisy
// received power.
func (a *eyeAccum) add(selectedBit int, noisy float64) {
	if selectedBit == 1 {
		a.e.Count1++
		a.sum1 += noisy
		a.sq1 += noisy * noisy
		if noisy < a.e.Min1 {
			a.e.Min1 = noisy
		}
	} else {
		a.e.Count0++
		a.sum0 += noisy
		a.sq0 += noisy * noisy
		if noisy > a.e.Max0 {
			a.e.Max0 = noisy
		}
	}
}

// stats finalizes the means, sigmas and opening.
func (a *eyeAccum) stats() EyeStats {
	e := a.e
	if e.Count0 > 0 {
		e.Mean0 = a.sum0 / float64(e.Count0)
		e.Sigma0 = math.Sqrt(math.Max(0, a.sq0/float64(e.Count0)-e.Mean0*e.Mean0))
	}
	if e.Count1 > 0 {
		e.Mean1 = a.sum1 / float64(e.Count1)
		e.Sigma1 = math.Sqrt(math.Max(0, a.sq1/float64(e.Count1)-e.Mean1*e.Mean1))
	}
	e.OpeningMW = e.Min1 - e.Max0
	return e
}

// eyeWalk runs the whole eye measurement as one sequential walk: the
// unit decodes 64 cycles per SNG word draw (core.Unit.Cycles, with
// received powers read from the shared table) and the detector noise
// arrives in 64-sample blocks (stochastic.Gaussian.FillScaled), advancing the
// unit's generators and the simulator's noise stream exactly as
// per-slot draws would.
func (s *Simulator) eyeWalk(x float64, bits int) (EyeStats, error) {
	acc := newEyeAccum()
	var noise [64]float64
	sel := s.Unit.Circuit.SelectedChannel
	err := s.Unit.Cycles(x, bits, func(t, weight, zmask int, receivedMW float64) {
		if t%64 == 0 {
			s.noise.FillScaled(noise[:min(64, bits-t)], s.SigmaMW)
		}
		acc.add(zmask>>sel(weight)&1, receivedMW+noise[t%64])
	})
	if err != nil {
		// Unreachable today (bits >= 1, visitor non-nil), but
		// propagate rather than crash if Cycles grows error paths.
		return EyeStats{}, err
	}
	return acc.stats(), nil
}

// MeasureEyeCtx runs `bits` noisy slots at input probability x and
// aggregates the decision-instant statistics. Like TraceCtx, the
// measurement consumes the simulator's single sequential noise
// stream, so the walk is dispatched as one work item on the given
// engine under ctx and every conforming engine emits identical
// statistics. A non-positive bit count yields empty statistics. A nil
// engine is an error, and a ctx that fires before the walk starts
// surfaces a *engine.Partial.
func (s *Simulator) MeasureEyeCtx(ctx context.Context, e engine.Engine, x float64, bits int) (EyeStats, error) {
	if err := engine.Check(e); err != nil {
		return EyeStats{}, err
	}
	if bits <= 0 {
		return newEyeAccum().stats(), nil
	}
	var stats EyeStats
	var walkErr error
	if err := engine.RunCtx(ctx, e, 1, nil, func(int) {
		stats, walkErr = s.eyeWalk(x, bits)
	}); err != nil {
		return EyeStats{}, err
	}
	return stats, walkErr
}

// String implements fmt.Stringer.
func (e EyeStats) String() string {
	return fmt.Sprintf("eye: '0' %.4f±%.4f mW (n=%d), '1' %.4f±%.4f mW (n=%d), opening %.4f mW",
		e.Mean0, e.Sigma0, e.Count0, e.Mean1, e.Sigma1, e.Count1, e.OpeningMW)
}
