package stochastic

import "math"

// Gaussian draws normal deviates from a SplitMix64 source via the
// Box–Muller transform. It is deterministic given the source, which
// keeps Monte-Carlo sweeps reproducible, and offers both a per-sample
// interface (Next/NextScaled) and block generation (Fill/FillScaled)
// for the word-parallel noisy evaluators. Block and serial generation
// from equal sources produce identical sequences — the cached spare
// deviate included — so the two interfaces can be interleaved freely.
//
// The source is the concrete *SplitMix64 rather than a NumberSource
// interface, so the uniform draws inline into the transform.
//
// ThresholdWord is the decision-domain form of FillScaled: when the
// noise only feeds `level+noise > thr` decisions, it returns the 64
// decisions of a block as one word, bit-identical to FillScaled plus
// the compare, but skips log, sqrt and sincos for every Box–Muller pair
// whose radius provably cannot cross either slot's threshold (see
// ScreenCut).
//
// It lives in this leaf package so that both internal/transient (noise
// injection) and internal/core (process-variation yield analysis) can
// share one sampler without an import cycle.
type Gaussian struct {
	src   *SplitMix64
	spare float64
	has   bool
}

// NewGaussian wraps a uniform source.
func NewGaussian(src *SplitMix64) *Gaussian {
	if src == nil {
		panic("stochastic: nil SplitMix64 source")
	}
	return &Gaussian{src: src}
}

// unit53 is 2^53, the denominator of SplitMix64.Next.
const unit53 = float64(uint64(1) << 53)

// u1Bits draws the 53-bit integer k behind a Box–Muller u1 = k/2^53,
// rejecting k == 0 (u1 == 0) to avoid log(0). It consumes the source
// exactly as the rejection loop over SplitMix64.Next does.
func (g *Gaussian) u1Bits() uint64 {
	for {
		if k := g.src.NextUint64() >> 11; k != 0 {
			return k
		}
	}
}

// pair draws one Box–Muller input pair, rejecting u1 == 0.
func (g *Gaussian) pair() (u1, u2 float64) {
	u1 = float64(g.u1Bits()) / unit53
	return u1, g.src.Next()
}

// Next returns a standard normal deviate.
func (g *Gaussian) Next() float64 {
	if g.has {
		g.has = false
		return g.spare
	}
	u1, u2 := g.pair()
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	g.spare = r * sin
	g.has = true
	return r * cos
}

// NextScaled returns a normal deviate with the given standard
// deviation.
func (g *Gaussian) NextScaled(sigma float64) float64 {
	return sigma * g.Next()
}

// Fill writes len(dst) standard normal deviates, transforming the
// uniform source a Box–Muller pair at a time. It consumes the source
// exactly as len(dst) Next calls would and leaves the same spare
// state behind, so filled and per-sample sequences are bit-identical.
func (g *Gaussian) Fill(dst []float64) {
	i := 0
	if g.has && len(dst) > 0 {
		g.has = false
		dst[0] = g.spare
		i = 1
	}
	for ; i+1 < len(dst); i += 2 {
		u1, u2 := g.pair()
		r := math.Sqrt(-2 * math.Log(u1))
		sin, cos := math.Sincos(2 * math.Pi * u2)
		dst[i], dst[i+1] = r*cos, r*sin
	}
	if i < len(dst) {
		dst[i] = g.Next() // odd tail: generate a pair, cache the spare
	}
}

// FillScaled fills dst with normal deviates of the given standard
// deviation — sigma times the Fill sequence, matching NextScaled.
func (g *Gaussian) FillScaled(dst []float64, sigma float64) {
	g.Fill(dst)
	for i := range dst {
		dst[i] *= sigma
	}
}

// noScreen is the cutoff no 53-bit draw exceeds: a slot with this cut
// always takes the full Box–Muller arithmetic.
const noScreen = math.MaxUint64

// ScreenCut returns the radius screen of one slot for ThresholdWord: a
// Box–Muller pair whose 53-bit u1 integer k exceeds the cut has a
// radius r = √(−2 ln u1) so small that level + σ·r·cos θ and
// level + σ·r·sin θ both fall on the same side of thr as level itself,
// whatever θ — and whatever rounding the FillScaled arithmetic applies.
//
// With d = |level − thr| shrunk by 2⁻⁴⁹(|level|+|thr|) + 2⁻¹⁰²⁰ and
// R = (d/σ)(1 − 2⁻³⁰), the cut is ⌊2⁵³·exp(−R²/2)⌋, since
// r < R ⇔ u1 > exp(−R²/2). The bound, one term per rounding:
//
//   - k > cut means u1 > c = Exp(−e), e = R²/2 as computed. Exp is
//     within one ulp, so −ln u1 < e + 2⁻⁵¹ ≤ e(1 + 2⁻³¹), because the
//     cut is only issued for e ≥ 2⁻²⁰.
//   - Log within one ulp and Sqrt, the multiply by −2 and the one in
//     R·R each correctly rounded give computed r ≤ R(1 + 2⁻³²+2⁻⁵⁰).
//   - R's own division and scaling add 2⁻⁵², so r·σ ≤ d(1 − 3·2⁻³²),
//     and |sin|, |cos| ≤ 1 + 2⁻⁵² with the two noise multiplies leave
//     |noise| < d: d ≥ 2⁻¹⁰·σ and σ ≥ 2⁻¹⁰⁰⁰ keep the slack far above
//     the 2⁻¹⁰⁷⁵ an underflowing product can lose.
//   - The distance shrink covers the rounding of level − thr and one
//     ulp of thr (2⁻⁵²|thr| normal, 2⁻¹⁰⁷⁴ subnormal), so |noise| < d
//     keeps the exact sum level + noise at or above the float after
//     thr when level > thr, and at or below thr otherwise. The final
//     add rounds monotonically, so the decision equals level > thr.
//
// Any non-finite input, σ below 2⁻¹⁰⁰⁰ (zero and negative included),
// a shrunk distance that is not positive, or e < 2⁻²⁰ returns the
// "never screen" cut, leaving the slot to the full arithmetic.
func ScreenCut(level, thr, sigma float64) uint64 {
	if math.IsInf(level, 0) || math.IsInf(thr, 0) || math.IsInf(sigma, 0) || !(sigma >= 0x1p-1000) {
		return noScreen
	}
	d := math.Abs(level-thr) - ((math.Abs(level)+math.Abs(thr))*0x1p-49 + 0x1p-1020)
	if !(d > 0) { // an overflowing distance overflows the shrink too: NaN
		return noScreen
	}
	r := d / sigma * (1 - 0x1p-30)
	e := r * r / 2
	if !(e >= 0x1p-20) {
		return noScreen
	}
	return uint64(math.Exp(-e) * unit53)
}

// ThresholdWord returns one block of noisy threshold decisions: bit t
// is set iff levels[t] + noise[t] > thr, where noise is exactly what
// FillScaled(dst[:len(levels)], sigma) would write, and the source and
// the cached spare advance exactly as that call would. cuts[t] must be
// ScreenCut(levels[t], thr, sigma); a pair of slots whose u1 draw
// clears both cuts is decided as level > thr without log, sqrt or
// sincos, and every other pair runs FillScaled's arithmetic unchanged.
// It panics unless len(levels) <= 64 and len(cuts) >= len(levels), and
// allocates nothing.
func (g *Gaussian) ThresholdWord(levels []float64, cuts []uint64, thr, sigma float64) uint64 {
	n := len(levels)
	if n > 64 || len(cuts) < n {
		panic("stochastic: ThresholdWord needs len(levels) <= 64 and a cut per level")
	}
	cuts = cuts[:n]
	var w uint64
	t := 0
	if g.has && n > 0 {
		g.has = false
		w = decide(levels[0], g.spare, thr, sigma)
		t = 1
	}
	for ; t+1 < n; t += 2 {
		k := g.u1Bits()
		if k > cuts[t] && k > cuts[t+1] {
			g.src.NextUint64() // u2: its angle cannot change either decision
			w |= above(levels[t], thr)<<t | above(levels[t+1], thr)<<(t+1)
			continue
		}
		r := math.Sqrt(-2 * math.Log(float64(k)/unit53))
		sin, cos := math.Sincos(2 * math.Pi * g.src.Next())
		w |= decide(levels[t], r*cos, thr, sigma)<<t | decide(levels[t+1], r*sin, thr, sigma)<<(t+1)
	}
	if t < n {
		w |= decide(levels[t], g.Next(), thr, sigma) << t // odd tail caches the spare
	}
	return w
}

// decide is one slot's decision on the standard deviate z, rounded as
// FillScaled and the caller's compare round it: the explicit
// conversion keeps the product from fusing into the add.
func decide(level, z, thr, sigma float64) uint64 {
	return above(level+float64(z*sigma), thr)
}

func above(v, thr float64) uint64 {
	if v > thr {
		return 1
	}
	return 0
}
