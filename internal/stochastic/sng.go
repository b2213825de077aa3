package stochastic

import (
	"fmt"
	"math"
)

// NumberSource produces pseudo-random numbers uniform on [0, 1). It
// is the randomness primitive behind every stochastic number
// generator in this package.
type NumberSource interface {
	Next() float64
}

// SNG is a stochastic number generator: it converts probabilities to
// bit-streams by comparing a NumberSource sample against the target
// probability each clock (the comparator architecture of the paper's
// Fig. 1a).
type SNG struct {
	src NumberSource
}

// NewSNG returns a generator drawing from src.
func NewSNG(src NumberSource) *SNG {
	if src == nil {
		panic("stochastic: nil NumberSource")
	}
	return &SNG{src: src}
}

// NextBit emits one stochastic bit with P(1) = p (clamped to [0,1]).
func (g *SNG) NextBit(p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if g.src.Next() < p {
		return 1
	}
	return 0
}

// Generate emits a stream of n bits each with P(1) = p.
func (g *SNG) Generate(p float64, n int) *Bitstream {
	b := NewBitstream(n)
	for i := 0; i < n; i++ {
		b.Set(i, g.NextBit(p))
	}
	return b
}

// NextWord emits nbits stochastic bits (0 < nbits <= 64) packed
// LSB-first into one word, each with P(1) = p. It consumes the source
// exactly as nbits NextBit calls would, so word-level and bit-level
// generation from equal sources yield identical streams.
func (g *SNG) NextWord(p float64, nbits int) uint64 {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("stochastic: NextWord bit count %d out of range [0,64]", nbits))
	}
	return bernoulliWord(g.src, p, nbits)
}

// GenerateWords is Generate assembled word-at-a-time through NextWord:
// bit-identical output for equal sources, without per-bit Set calls.
func (g *SNG) GenerateWords(p float64, n int) *Bitstream {
	b := NewBitstream(n)
	for w := 0; w < b.WordCount(); w++ {
		b.SetWord(w, bernoulliWord(g.src, p, b.WordBits(w)))
	}
	return b
}

// bernoulliWord packs nbits comparator outputs into one word. Like
// NextBit, it consumes no samples for the degenerate probabilities,
// and one sample per bit otherwise. The *SplitMix64 case is the same
// loop with the source devirtualized and the compare moved to the
// integer domain (splitMixWord) — the generator inlines there, which
// matters in the packed evaluators' hot path.
func bernoulliWord(src NumberSource, p float64, nbits int) uint64 {
	if nbits <= 0 || p <= 0 {
		return 0
	}
	all := ^uint64(0) >> (64 - uint(nbits))
	if p >= 1 {
		return all
	}
	var w uint64
	if sm, ok := src.(*SplitMix64); ok {
		w, sm.state = splitMixWord(sm.state, probThreshold(p), nbits)
		return w
	}
	for b := 0; b < nbits; b++ {
		if src.Next() < p {
			w |= 1 << uint(b)
		}
	}
	return w
}

// lfsrTaps maps register width to a maximal-length Galois feedback
// mask: bit e-1 is set for each exponent e of the primitive feedback
// polynomial (constant term excluded). Masks for widths 4-25 were
// verified exhaustively to have period 2^w - 1 under the Step update
// rule; the larger widths use the same published tap sets
// ([w, ...] exponent lists from the standard LFSR tap tables).
var lfsrTaps = map[uint]uint64{
	4:  0xC,        // x^4 + x^3 + 1
	5:  0x14,       // x^5 + x^3 + 1
	6:  0x30,       // x^6 + x^5 + 1
	7:  0x60,       // x^7 + x^6 + 1
	8:  0xB8,       // x^8 + x^6 + x^5 + x^4 + 1
	9:  0x110,      // x^9 + x^5 + 1
	10: 0x240,      // x^10 + x^7 + 1
	11: 0x500,      // x^11 + x^9 + 1
	12: 0xE08,      // x^12 + x^11 + x^10 + x^4 + 1
	13: 0x1C80,     // x^13 + x^12 + x^11 + x^8 + 1
	14: 0x3802,     // x^14 + x^13 + x^12 + x^2 + 1
	15: 0x6000,     // x^15 + x^14 + 1
	16: 0xD008,     // x^16 + x^15 + x^13 + x^4 + 1
	17: 0x12000,    // x^17 + x^14 + 1
	18: 0x20400,    // x^18 + x^11 + 1
	19: 0x72000,    // x^19 + x^18 + x^17 + x^14 + 1
	20: 0x90000,    // x^20 + x^17 + 1
	21: 0x140000,   // x^21 + x^19 + 1
	22: 0x300000,   // x^22 + x^21 + 1
	23: 0x420000,   // x^23 + x^18 + 1
	24: 0xE10000,   // x^24 + x^23 + x^22 + x^17 + 1
	25: 0x1200000,  // x^25 + x^22 + 1
	28: 0x9000000,  // x^28 + x^25 + 1
	31: 0x48000000, // x^31 + x^28 + 1
	32: 0x80200003, // x^32 + x^22 + x^2 + x + 1
}

// LFSR is a Galois (one's-complement) linear-feedback shift register,
// the standard hardware stochastic number generator. A width-w
// register cycles through 2^w - 1 non-zero states; Next() normalizes
// the state to [0, 1).
type LFSR struct {
	state uint64
	taps  uint64
	width uint
}

// NewLFSR returns a maximal-length LFSR of the given width seeded
// with seed (zero seeds are mapped to 1, as the all-zero state is
// absorbing). Supported widths are those with known maximal tap sets;
// unsupported widths return an error.
func NewLFSR(width uint, seed uint64) (*LFSR, error) {
	taps, ok := lfsrTaps[width]
	if !ok {
		return nil, fmt.Errorf("stochastic: no maximal-length taps for LFSR width %d", width)
	}
	mask := uint64(1)<<width - 1
	seed &= mask
	if seed == 0 {
		seed = 1
	}
	return &LFSR{state: seed, taps: taps, width: width}, nil
}

// MustLFSR is NewLFSR that panics on error; for use with the
// compile-time-known widths in examples and tests.
func MustLFSR(width uint, seed uint64) *LFSR {
	l, err := NewLFSR(width, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// Step advances the register one clock (Galois right shift) and
// returns the new state.
func (l *LFSR) Step() uint64 {
	lsb := l.state & 1
	l.state >>= 1
	if lsb != 0 {
		l.state ^= l.taps
	}
	return l.state
}

// Next implements NumberSource: the state normalized to [0, 1).
func (l *LFSR) Next() float64 {
	s := l.Step()
	return float64(s-1) / float64(uint64(1)<<l.width-1)
}

// Period returns the sequence period 2^width - 1.
func (l *LFSR) Period() uint64 { return uint64(1)<<l.width - 1 }

// CounterSource is a deterministic ramp over [0, 1): 0, 1/m, 2/m, ...
// Comparing a probability against a ramp produces a unary
// (deterministic, low-discrepancy) bit-stream; it removes random
// fluctuation at the cost of correlation between streams.
type CounterSource struct {
	i, m uint64
}

// NewCounterSource returns a ramp of modulus m (m >= 1).
func NewCounterSource(m uint64) *CounterSource {
	if m == 0 {
		m = 1
	}
	return &CounterSource{m: m}
}

// Next implements NumberSource.
func (c *CounterSource) Next() float64 {
	v := float64(c.i) / float64(c.m)
	c.i = (c.i + 1) % c.m
	return v
}

// ChaoticSource generates uniform samples from the logistic map at
// full chaos (r = 4), x_{k+1} = 4 x_k (1 - x_k), through the
// measure-preserving transform u = (2/π) asin(√x) that flattens the
// map's arcsine-shaped invariant density. It is a deterministic
// software stand-in for the chaotic-laser random bit generators the
// paper proposes for the optical randomizer (future work, ref [20]).
type ChaoticSource struct {
	x float64
}

// NewChaoticSource seeds the map; seeds are folded into (0, 1) and
// the first 64 iterations are discarded to decorrelate from the seed.
func NewChaoticSource(seed float64) *ChaoticSource {
	x := math.Abs(seed)
	x -= math.Floor(x)
	if x == 0 || x == 1 {
		x = 0.379414
	}
	// Avoid the fixed points 0 and 0.75.
	if x == 0.75 {
		x = 0.7379
	}
	c := &ChaoticSource{x: x}
	for i := 0; i < 64; i++ {
		c.step()
	}
	return c
}

func (c *ChaoticSource) step() {
	c.x = 4 * c.x * (1 - c.x)
	// Reinject if the orbit collapses numerically.
	if c.x <= 0 || c.x >= 1 || math.IsNaN(c.x) {
		c.x = 0.379414
	}
}

// Next implements NumberSource.
func (c *ChaoticSource) Next() float64 {
	c.step()
	return 2 / math.Pi * math.Asin(math.Sqrt(c.x))
}

// SplitMix64 is a 64-bit counter-based mixing PRNG (the SplitMix64
// sequence). It is fast, seedable and passes the statistical needs of
// stochastic computing; used as the default software NumberSource.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 seeds the generator.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Reseed resets the generator to the given seed's sequence, as if
// freshly constructed. Tiled engines reuse one generator per worker
// across millions of per-pixel streams instead of allocating one each.
func (s *SplitMix64) Reseed(seed uint64) { s.state = seed }

// splitMixGamma is SplitMix64's per-draw state increment.
const splitMixGamma = 0x9E3779B97F4A7C15

// splitMix64 is SplitMix64's output mix of a state. The state after t
// draws is the seed plus t·γ, so draw t (from 0) of a generator seeded
// s is splitMix64(s + (t+1)·γ): any single draw can be computed on its
// own, which is what lets ReSCOnesSplitMix skip the coefficient draws
// the multiplexer does not select.
func splitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// splitMixWord packs nbits comparator outputs of the SplitMix64
// generator in state s against the integer threshold thr (see
// probThreshold in plane.go) LSB-first, and returns them with the
// advanced state. The compare is branchless: k and thr both sit far
// below 2^63, so k < thr iff k−thr wraps, i.e. bit 63 of the
// difference. Stochastic bits are maximally unpredictable, so a
// branch here would mispredict half the time.
func splitMixWord(s, thr uint64, nbits int) (uint64, uint64) {
	var w uint64
	for b := 0; b < nbits; b++ {
		s += splitMixGamma
		w |= (splitMix64(s)>>11 - thr) >> 63 << uint(b)
	}
	return w, s
}

// NextUint64 advances the sequence.
func (s *SplitMix64) NextUint64() uint64 {
	s.state += splitMixGamma
	return splitMix64(s.state)
}

// Next implements NumberSource.
func (s *SplitMix64) Next() float64 {
	return float64(s.NextUint64()>>11) / float64(uint64(1)<<53)
}
