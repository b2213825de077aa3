package stochastic

import "fmt"

// SNG is a stochastic number generator: it converts probabilities to
// bit-streams by comparing a SplitMix64 sample against the target
// probability each clock (the comparator architecture of the paper's
// Fig. 1a).
type SNG struct {
	src *SplitMix64
}

// NewSNG returns a generator drawing from src.
func NewSNG(src *SplitMix64) *SNG {
	if src == nil {
		panic("stochastic: nil SplitMix64 source")
	}
	return &SNG{src: src}
}

// NextBit emits one stochastic bit with P(1) = p (clamped to [0,1]).
func (g *SNG) NextBit(p float64) int { return comparatorBit(g.src, p) }

// comparatorBit is the Fig. 1(a) comparator behind NextBit and
// ReSC.Step: no draw for p <= 0 or p >= 1, and otherwise one draw and
// a 1 iff it falls below p. A NaN p draws and decides 0.
func comparatorBit(src *SplitMix64, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if src.Next() < p {
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

// bernoulliWord packs nbits comparator outputs into one word. Like
// NextBit, it consumes no samples for the degenerate probabilities,
// and one sample per bit otherwise, with the compare moved to the
// integer domain (splitMixWord) so that the generator inlines, which
// matters in the packed evaluators' hot path.
func bernoulliWord(src *SplitMix64, p float64, nbits int) uint64 {
	if nbits <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0) >> (64 - uint(nbits))
	}
	var w uint64
	w, src.state = splitMixWord(src.state, probThreshold(p), nbits)
	return w
}

// SplitMix64 is a 64-bit counter-based mixing PRNG (the SplitMix64
// sequence). It is fast, seedable and passes the statistical needs of
// stochastic computing; it is the only random source of the
// production paths.
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

// Next returns the next draw as a uniform sample on [0, 1): its top
// 53 bits over 2^53.
func (s *SplitMix64) Next() float64 {
	return float64(s.NextUint64()>>11) / float64(uint64(1)<<53)
}
