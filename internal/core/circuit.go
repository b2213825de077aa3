package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/optics"
)

// Circuit is an instantiated optical SC unit: the modulator rings
// parked on the probe comb, the add-drop filter, and the MZI adder
// bank (paper Fig. 4a).
//
// Analysis results that every consumer re-derives — per-device
// transmission factors, the (weight, z-mask) received-power table, the
// power bands, the worst-case margin — are cached lazily inside the
// circuit and shared by all evaluation paths (SNR/BER/probe sizing,
// the de-randomizer calibration, the unit's packed engines, the yield
// sweep). The caches build on first use under sync.Once and are
// immutable afterwards, so concurrent readers need no locking; callers
// that hand-perturb the exported device fields (as the yield sweep
// does) must do so before the first analysis call.
type Circuit struct {
	P Params
	// Modulators[i] is the coefficient modulator ring for channel i,
	// cold-resonant at λ_i.
	Modulators []optics.Ring
	// Filter is the all-optical multiplexer, cold-resonant at λref.
	Filter optics.Ring
	// Bank is the pump adder: n identical MZIs.
	Bank *optics.MZIBank

	// fact is the factor cache the power table builds, published so
	// the Eq. (8) margin can read it when it exists.
	fact atomic.Pointer[circuitFactors]

	powOnce  sync.Once
	powers   [][]float64
	powCells []float64 // the rows of powers, back to back

	bandsOnce sync.Once
	bands     [4]float64

	deltaOnce sync.Once
	deltaCh   int32 // packs beside deltaOnce: the circuit keeps its allocation size
	delta     float64
}

// NewCircuit validates p and instantiates the devices.
func NewCircuit(p Params) (*Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Circuit{P: p}
	c.Modulators = make([]optics.Ring, p.Order+1)
	for i := range c.Modulators {
		c.Modulators[i] = p.ModShape.At(p.Lambda(i))
	}
	c.Filter = p.FilterShape.At(p.LambdaRefNM())
	c.Bank = optics.NewUniformMZIBank(p.Order, p.MZI)
	return c, nil
}

// MustCircuit panics on invalid parameters; for use with the
// calibrated presets.
func MustCircuit(p Params) *Circuit {
	c, err := NewCircuit(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Order returns the polynomial degree n.
func (c *Circuit) Order() int { return c.P.Order }

// FilterShiftNM returns ΔFilter(x) of Eq. (7a) for a data vector
// given by its Hamming weight (the shift depends on x only through
// the number of ones).
func (c *Circuit) FilterShiftNM(weight int) float64 {
	ctrl := c.P.PumpPowerMW * c.Bank.TransmissionByWeight(weight)
	return c.P.OTE.ShiftNM(ctrl)
}

// FilterResonanceNM returns the filter's instantaneous resonance for
// a data weight: λref − ΔFilter.
func (c *Circuit) FilterResonanceNM(weight int) float64 {
	return c.P.LambdaRefNM() - c.FilterShiftNM(weight)
}

// SelectedChannel returns the probe channel index the data weight is
// intended to route to the output: channel i = weight, matching the
// ReSC multiplexer semantics (weight w of ones selects coefficient
// z_w). With a design-method-derived pump power and extinction ratio
// the filter resonance lands exactly on λ_weight.
func (c *Circuit) SelectedChannel(weight int) int { return weight }

// modResonance returns the instantaneous resonance of modulator w for
// coefficient bit z: the ON state ('1') blue-shifts by Δλ.
func (c *Circuit) modResonance(w, z int) float64 {
	res := c.Modulators[w].ResonanceNM
	if z != 0 {
		res -= c.P.DeltaLambdaNM
	}
	return res
}

// ProbeTransmission returns T_{s,z}[i] of Eq. (6): the end-to-end
// power transmission of probe i through all n+1 modulator rings (each
// detuned according to its coefficient bit) and the filter shifted by
// dFilterNM:
//
//	T = Π_w φt(λ_i, λ_w − Δλ·z_w) · φd(λ_i, λref − ΔFilter)
//
// z must hold n+1 coefficient bits.
func (c *Circuit) ProbeTransmission(i int, z []int, dFilterNM float64) float64 {
	if len(z) != len(c.Modulators) {
		panic(fmt.Sprintf("core: %d coefficient bits for order %d", len(z), c.P.Order))
	}
	lam := c.P.Lambda(i)
	t := 1.0
	for w, ring := range c.Modulators {
		t *= ring.Through(lam, c.modResonance(w, z[w]))
	}
	return t * c.Filter.Drop(lam, c.P.LambdaRefNM()-dFilterNM)
}

// ReceivedPowerMW returns the total optical power at the
// photodetector for data weight and coefficient bits z: the sum of
// every probe laser's power times its end-to-end transmission. This
// is the quantity plotted in the paper's Fig. 5(c).
func (c *Circuit) ReceivedPowerMW(weight int, z []int) float64 {
	d := c.FilterShiftNM(weight)
	sum := 0.0
	for i := range c.Modulators {
		sum += c.P.ProbePowerMW * c.ProbeTransmission(i, z, d)
	}
	return sum
}

// circuitFactors caches the per-device transmission factors every
// received power is a product of. ProbeTransmission evaluates one ring
// Lorentzian per (probe, modulator) pair and one filter drop per probe
// — each a cosine — yet probe i only ever sees two resonance states per
// modulator (coefficient bit 0/1) and n+1 filter states (one per data
// weight). Tabulating those (n+1)²·3 factors once turns every power
// table cell into pure table products, in the exact multiplication
// order of the direct path, so the table is bit-identical to
// ReceivedPowerMW. The power table builds it; the Eq. (8) margin reads
// it when it exists and otherwise evaluates only the one-hot factors
// it needs (channelDeltas).
type circuitFactors struct {
	n1 int // probes, modulators and data weights: n+1 each
	// thru[i*n1+w] holds ring w's through factor at probe λ_i for
	// coefficient bit 0 and 1.
	thru [][2]float64
	// drop[i*n1+weight] is the filter drop factor at probe λ_i with the
	// filter shifted for the given data weight.
	drop []float64
}

// factors builds the per-device factor cache and publishes it. The
// power table calls it once, under powOnce.
func (c *Circuit) factors() *circuitFactors {
	n1 := len(c.Modulators)
	f := &circuitFactors{
		n1:   n1,
		thru: make([][2]float64, n1*n1),
		drop: make([]float64, n1*n1),
	}
	var ref [MaxOrder + 1]float64
	for weight := 0; weight < n1; weight++ {
		ref[weight] = c.P.LambdaRefNM() - c.FilterShiftNM(weight)
	}
	for i := 0; i < n1; i++ {
		lam := c.P.Lambda(i)
		for w, ring := range c.Modulators {
			f.thru[i*n1+w][0] = ring.Through(lam, c.modResonance(w, 0))
			f.thru[i*n1+w][1] = ring.Through(lam, c.modResonance(w, 1))
		}
		for weight := 0; weight < n1; weight++ {
			f.drop[i*n1+weight] = c.Filter.Drop(lam, ref[weight])
		}
	}
	c.fact.Store(f)
	return f
}

// transmissionByMask is ProbeTransmission for probe i with the
// coefficient bits given as a mask and the filter state given by the
// data weight, resolved from the factor cache. The factor products run
// in the same order as the direct path, so the result is bit-identical
// to ProbeTransmission(i, bits(zmask), FilterShiftNM(weight)).
func (c *Circuit) transmissionByMask(f *circuitFactors, i, weight, zmask int) float64 {
	t := 1.0
	for w, th := range f.thru[i*f.n1 : (i+1)*f.n1] {
		t *= th[zmask>>w&1]
	}
	return t * f.drop[i*f.n1+weight]
}

// receivedByMask is ReceivedPowerMW resolved from the factor cache,
// summing probes in the same order as the direct path.
func (c *Circuit) receivedByMask(f *circuitFactors, weight, zmask int) float64 {
	sum := 0.0
	for i := 0; i < f.n1; i++ {
		sum += c.P.ProbePowerMW * c.transmissionByMask(f, i, weight, zmask)
	}
	return sum
}

// PowerTable returns the fully-tabulated received power,
// powers[weight][zmask] in mW, building it lazily from the factor
// cache: the optical state space has only (n+1)·2^(n+1) points, so one
// enumeration turns per-cycle ring evaluations — serial Step lookups,
// packed threshold decisions, band scans and margin searches alike —
// into table reads. Entries are bit-identical to ReceivedPowerMW. The
// finished table is immutable and shared lock-free by every consumer
// (the unit's packed engines, the de-randomizer calibration, the yield
// sweep). Params.Validate caps the order at MaxOrder, so every
// circuit has one.
func (c *Circuit) PowerTable() [][]float64 {
	c.powOnce.Do(func() {
		f := c.factors()
		n1 := len(c.Modulators)
		masks := 1 << n1
		cells := make([]float64, n1*masks)
		rows := make([][]float64, n1)
		for w := range rows {
			row := cells[w*masks : (w+1)*masks : (w+1)*masks]
			for zmask := range row {
				row[zmask] = c.receivedByMask(f, w, zmask)
			}
			rows[w] = row
		}
		c.powers, c.powCells = rows, cells
	})
	return c.powers
}

// powerCells returns the power table as one slice indexed by cell,
// weight<<(n+1) | zmask: the packed kernels' per-cycle lookup.
func (c *Circuit) powerCells() []float64 {
	c.PowerTable()
	return c.powCells
}

// ChannelTotals returns the per-channel total transmissions for a
// given data weight and coefficient bits — the numbers the paper
// quotes for Fig. 5(a)/(b) (e.g. 0.091 / 0.004 / 0.0002).
func (c *Circuit) ChannelTotals(weight int, z []int) []float64 {
	d := c.FilterShiftNM(weight)
	out := make([]float64, len(c.Modulators))
	for i := range out {
		out[i] = c.ProbeTransmission(i, z, d)
	}
	return out
}

// PowerBands enumerates every (weight, z) combination and returns the
// received-power extrema grouped by the transmitted bit (the selected
// coefficient's value): the '0' band [minZero, maxZero] and the '1'
// band [minOne, maxOne]. These bands are the optical de-randomizer's
// decision levels (Fig. 5c). Exhaustive over 2^(n+1) coefficient
// patterns, up to MaxOrder. The scan runs once over the shared power
// table and is cached — Decider, EyeOpeningMW and the yield sweep all
// read the same result.
func (c *Circuit) PowerBands() (minZero, maxZero, minOne, maxOne float64) {
	c.bandsOnce.Do(func() {
		pow := c.PowerTable()
		n := c.P.Order
		first0, first1 := true, true
		for pattern := 0; pattern < 1<<(n+1); pattern++ {
			for weight := 0; weight <= n; weight++ {
				p := pow[weight][pattern]
				if pattern>>c.SelectedChannel(weight)&1 == 0 {
					if first0 || p < c.bands[0] {
						c.bands[0] = p
					}
					if first0 || p > c.bands[1] {
						c.bands[1] = p
					}
					first0 = false
				} else {
					if first1 || p < c.bands[2] {
						c.bands[2] = p
					}
					if first1 || p > c.bands[3] {
						c.bands[3] = p
					}
					first1 = false
				}
			}
		}
	})
	return c.bands[0], c.bands[1], c.bands[2], c.bands[3]
}

// Decider returns the OOK threshold placed midway between the worst
// '0' and worst '1' received powers.
func (c *Circuit) Decider() optics.OOKDecider {
	_, maxZero, minOne, _ := c.PowerBands()
	return optics.NewMidpointDecider(maxZero, minOne)
}

// EyeOpeningMW returns the worst-case separation between the '1' and
// '0' received-power bands. Non-positive means the circuit cannot
// distinguish the data levels at any laser power.
func (c *Circuit) EyeOpeningMW() float64 {
	_, maxZero, minOne, _ := c.PowerBands()
	return optics.EyeOpeningMW(maxZero, minOne)
}
