package stochastic

import (
	"fmt"
	"math"
)

// ChaoticLaserSNG is an all-optical stochastic number generator
// modeled on broadband chaotic semiconductor lasers (the paper's
// future-work ref [20]): the laser's chaotic intensity is sampled
// once per bit slot and compared against a threshold; the bit is '1'
// when the intensity exceeds it.
//
// The intensity dynamics are modeled by the fully chaotic logistic
// map, whose invariant density on [0, 1] is the arcsine law
// ρ(I) = 1/(π√(I(1−I))). The threshold realizing P(1) = p is
// therefore the analytic quantile
//
//	θ(p) = sin²(π(1−p)/2)
//
// so — unlike a comparator against a uniform source — the target
// probability is set purely by an optical threshold, with no
// linearization electronics. Consecutive samples are decorrelated by
// discarding a configurable number of map iterations per emitted bit
// (chaotic lasers decorrelate in tens of picoseconds [20]).
type ChaoticLaserSNG struct {
	src *ChaoticSource
	// Decorrelate is the number of extra map iterations dropped
	// between emitted bits (0 = use every sample).
	Decorrelate int
}

// NewChaoticLaserSNG seeds the laser model.
//
//osclint:ignore testonly ROADMAP items 2 and 9 keep the chaotic laser as a non-i.i.d. source for the one-draw comparator; tests in the root and stochastic share it
func NewChaoticLaserSNG(seed float64, decorrelate int) (*ChaoticLaserSNG, error) {
	if decorrelate < 0 {
		return nil, fmt.Errorf("stochastic: negative decorrelation %d", decorrelate)
	}
	return &ChaoticLaserSNG{src: NewChaoticSource(seed), Decorrelate: decorrelate}, nil
}

// ThresholdFor returns the optical threshold θ(p) realizing the
// target probability under the arcsine intensity density.
func ThresholdFor(p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	s := math.Sin(math.Pi * (1 - p) / 2)
	return s * s
}

// intensity returns the next raw (arcsine-distributed) intensity
// sample. ChaoticSource.Next applies the uniformizing transform, so
// invert it to recover the physical intensity.
func (g *ChaoticLaserSNG) intensity() float64 {
	u := g.src.Next()
	s := math.Sin(math.Pi / 2 * u)
	return s * s
}

// NextBit emits one stochastic bit with P(1) = p.
func (g *ChaoticLaserSNG) NextBit(p float64) int {
	for i := 0; i < g.Decorrelate; i++ {
		g.src.Next()
	}
	if g.intensity() > ThresholdFor(p) {
		return 1
	}
	return 0
}

// Generate emits an n-bit stream with P(1) = p.
func (g *ChaoticLaserSNG) Generate(p float64, n int) *Bitstream {
	b := NewBitstream(n)
	for i := 0; i < n; i++ {
		b.Set(i, g.NextBit(p))
	}
	return b
}

// AsNumberSource adapts the chaotic laser to the NumberSource
// interface (uniform samples) so it can drive a ReSC or optical unit
// directly.
//
//osclint:ignore testonly ROADMAP items 2 and 9 keep the chaotic laser as a non-i.i.d. source for the one-draw comparator; this is how it drives a ReSC
func (g *ChaoticLaserSNG) AsNumberSource() NumberSource {
	return chaoticAdapter{g}
}

type chaoticAdapter struct{ g *ChaoticLaserSNG }

func (a chaoticAdapter) Next() float64 {
	for i := 0; i < a.g.Decorrelate; i++ {
		a.g.src.Next()
	}
	return a.g.src.Next()
}
