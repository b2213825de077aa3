package stochastic

import (
	"math"
	"math/bits"
)

// Gaussian draws normal deviates from a SplitMix64 source via the
// Box–Muller transform. It is deterministic given the source, which
// keeps Monte-Carlo sweeps reproducible, and offers both a per-sample
// interface (Next/NextScaled) and block generation (Fill/FillScaled)
// for the word-parallel noisy evaluators. Block and serial generation
// from equal sources produce identical sequences — the cached spare
// deviate included — so the two interfaces can be interleaved freely.
//
// The source is the concrete *SplitMix64, so the uniform draws inline
// into the transform.
//
// ThresholdWord is the decision-domain form of FillScaled: when the
// noise only feeds `level+noise > thr` decisions, it returns the 64
// decisions of a block as one word, bit-identical to FillScaled plus
// the compare, but skips log, sqrt and sincos for every Box–Muller pair
// whose radius provably cannot cross either slot's threshold, and for
// almost every other pair, whose decisions table brackets of r² and
// the angle settle (see NewScreen).
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

// Screen is one slot's precomputed test for ThresholdWord, built by
// NewScreen from the slot's level, the threshold and sigma. It holds
// the radius cut, the squared keep and flip bounds of the angle–radius
// bracket, and the direction the noise must take to cross thr.
type Screen struct {
	cut  uint64  // u1 integers above it screen the slot
	keep float64 // an upper bound on z² below it keeps level > thr
	flip float64 // a lower bound on z² above it, toward thr, flips it
	dir  float64 // the sign of thr − level; 0 for a slot with no cut
}

// NewScreen returns the Screen of one slot: its radius cut (see
// screenCut) and, when it has one, the bracket bounds on the squared
// standard deviate z² that settle the slot without the exact
// arithmetic.
//
// With d⁻ = screenCut's shrunk distance and d⁺ = |level − thr| plus
// the same slack term, the bracket keeps when its upper bound on z² is
// below (d⁻/σ)²(1 − 2⁻³⁰) and flips when its lower bound exceeds
// (d⁺/σ)²(1 + 2⁻³⁰) with the trig factor's sign certain and pointing
// toward thr. The bound, extending screenCut's one term at a time:
//
//   - z is FillScaled's r·cos θ (or r·sin θ) as computed. The tables
//     behind the bracket bound r² = −2 ln u1 from the exponent and the
//     leading 8 mantissa bits of the u1 integer k, and cos²θ, with its
//     sign, from the top 10 bits of the u2 integer, and every entry is
//     widened by 2⁻⁴⁰: relatively for r², absolutely for the squares
//     in [0, 1]. Log within one ulp and the correctly rounded −2· and
//     Sqrt move the computed r² by under 2⁻⁵⁰ relative; the rounding of
//     2π·u2 moves θ by under 2⁻⁴⁹ and Sincos adds about 2⁻⁵², so the
//     computed trig factor is within 2⁻⁴⁸ of the exact one and its
//     square within 2⁻⁴⁷. Those, the table build (Log1p and Cos within
//     an ulp) and the bracket's own adds and multiplies sit far inside
//     the widening.
//   - Keep: z² below (d⁻/σ)²(1 − 2⁻³⁰), the product and noise
//     multiplies (2⁻⁵² each) and the rounding of d⁻/σ and its square
//     leave σ·|z| below d⁻(1 − 2⁻³²), which is screenCut's |noise| < d⁻
//     case: the decision equals level > thr.
//   - Flip: d⁺ exceeds the distance from level to the float after thr
//     (the 2⁻⁴⁹ slack covers the rounding of level − thr and one ulp of
//     thr, the 2⁻¹⁰²⁰ a subnormal one), and z² above (d⁺/σ)²(1 + 2⁻³⁰)
//     leaves |noise| above d⁺ after every rounding. With noise pointing
//     toward thr, the exact sum level + noise lies past the float after
//     thr, and the final add rounds monotonically, so the decision is
//     the opposite of level > thr.
//   - Away: noise whose sign points away from thr moves the exact sum
//     away from thr, so the rounded sum stays on level's side whatever
//     its magnitude. A sign is certain when the table's lower bound on
//     the square is positive, which leaves the computed factor at least
//     2⁻²⁰ from zero with the sign of the exact one.
//
// A slot with no radius cut gets no bracket: keep 0, flip +Inf and no
// direction settle nothing.
func NewScreen(level, thr, sigma float64) Screen {
	cut := screenCut(level, thr, sigma)
	if cut == noScreen {
		return Screen{cut: noScreen, flip: math.Inf(1)}
	}
	dist, slack := screenDistance(level, thr)
	lo, hi := (dist-slack)/sigma, (dist+slack)/sigma
	dir := 1.0
	if level > thr {
		dir = -1
	}
	return Screen{cut: cut, keep: lo * lo * (1 - 0x1p-30), flip: hi * hi * (1 + 0x1p-30), dir: dir}
}

// screenDistance returns |level − thr| and the slack that covers its
// rounding and one ulp of thr.
func screenDistance(level, thr float64) (dist, slack float64) {
	return math.Abs(level - thr), (math.Abs(level)+math.Abs(thr))*0x1p-49 + 0x1p-1020
}

// screenCut returns the radius screen of one slot for ThresholdWord: a
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
func screenCut(level, thr, sigma float64) uint64 {
	if math.IsInf(level, 0) || math.IsInf(thr, 0) || math.IsInf(sigma, 0) || !(sigma >= 0x1p-1000) {
		return noScreen
	}
	dist, slack := screenDistance(level, thr)
	d := dist - slack
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

// bracket is one table entry: lower and upper bounds on r² or on a
// squared trig factor. A trig entry's lower bound carries the factor's
// sign when it is certain and is 0 otherwise.
type bracket struct{ lo, hi float64 }

// widen moves every table bound outward: relatively for r²,
// absolutely for the squares in [0, 1].
const widen = 0x1p-40

// ln4Lo and ln4Hi bracket 2·ln 2, the r² of one binade of u1.
const (
	ln4Lo = 2 * math.Ln2 * (1 - widen)
	ln4Hi = 2 * math.Ln2 * (1 + widen)
)

// lnBracket[i] brackets 2·ln(2/m) for the mantissas m of the u1 integer
// in [1 + i/256, 1 + (i+1)/256): with n binades below 2⁵², u1 = 2⁻ⁿ·m/2
// and r² = −2 ln u1 = n·2 ln 2 + 2 ln(2/m), a sum of two non-negative
// terms that the bracket adds without cancellation.
var lnBracket = func() (t [256]bracket) {
	for i := range t {
		t[i] = bracket{
			lo: -2 * math.Log1p(float64(i-255)/512) * (1 - widen),
			hi: -2 * math.Log1p(float64(i-256)/512) * (1 + widen),
		}
	}
	return t
}()

// trigBracket[j] brackets cos²θ for θ in [2πj/1024, 2π(j+1)/1024);
// sin²θ is entry j − 256 (mod 1024), since sin θ = cos(θ − π/2). The
// zeros and extrema of cos lie on entry edges, so |cos| is monotone in
// each entry and its edges bound it.
var trigBracket = func() (t [1024]bracket) {
	for j := range t {
		a := math.Cos(2 * math.Pi * float64(j) / 1024)
		b := math.Cos(2 * math.Pi * float64(j+1) / 1024)
		t[j].hi = max(a*a, b*b) + widen
		if lo := min(a*a, b*b) - widen; lo > 0 {
			t[j].lo = math.Copysign(lo, a)
		}
	}
	return t
}()

// rsqBracket brackets the computed r² of the u1 integer k ∈ [1, 2⁵³).
func rsqBracket(k uint64) (lo, hi float64) {
	lz := bits.LeadingZeros64(k)
	n := float64(lz - 11)         // binades of u1 below 1/2
	e := &lnBracket[k<<lz<<1>>56] // the 8 mantissa bits after the leading one
	return n*ln4Lo + e.lo, n*ln4Hi + e.hi
}

// settle decides one slot from the brackets of r² and of its trig
// factor, without a branch: ok is 1 when the brackets fix the decision,
// and bit is then that decision.
func (s *Screen) settle(rlo, rhi float64, c *bracket) (bit, ok uint64) {
	v := c.lo * s.dir // > 0: the noise certainly points toward thr; < 0: away
	flip := b2u(rlo*v > s.flip)
	keep := b2u(v < 0) | b2u(rhi*c.hi < s.keep)
	return b2u(s.dir < 0) ^ flip, flip | keep
}

// ThresholdWord returns one block of noisy threshold decisions: bit t
// is set iff levels[t] + noise[t] > thr, where noise is exactly what
// FillScaled(dst[:len(levels)], sigma) would write, and the source and
// the cached spare advance exactly as that call would. screens[t] must
// be NewScreen(levels[t], thr, sigma). A pair of slots whose u1 draw
// clears both radius cuts is decided as level > thr without log, sqrt
// or sincos; a pair the cuts miss is settled from the r² and trig
// brackets when both slots' bounds are conclusive, and every other
// pair runs FillScaled's arithmetic unchanged. It panics unless
// len(levels) <= 64 and len(screens) >= len(levels), and allocates
// nothing.
func (g *Gaussian) ThresholdWord(levels []float64, screens []Screen, thr, sigma float64) uint64 {
	n := len(levels)
	if n > 64 || len(screens) < n {
		panic("stochastic: ThresholdWord needs len(levels) <= 64 and a screen per level")
	}
	screens = screens[:n]
	var w uint64
	t := 0
	if g.has && n > 0 {
		g.has = false
		w = decide(levels[0], g.spare, thr, sigma)
		t = 1
	}
	for ; t+1 < n; t += 2 {
		k := g.u1Bits()
		a, b := &screens[t], &screens[t+1]
		if k > a.cut && k > b.cut {
			g.src.NextUint64() // u2: its angle cannot change either decision
			w |= above(levels[t], thr)<<t | above(levels[t+1], thr)<<(t+1)
			continue
		}
		j := g.src.NextUint64() >> 11 // u2 = j/2⁵³
		rlo, rhi := rsqBracket(k)
		b0, ok0 := a.settle(rlo, rhi, &trigBracket[j>>43])
		b1, ok1 := b.settle(rlo, rhi, &trigBracket[(j>>43+768)&1023])
		if ok0&ok1 != 0 {
			w |= b0<<t | b1<<(t+1)
			continue
		}
		r := math.Sqrt(-2 * math.Log(float64(k)/unit53))
		sin, cos := math.Sincos(2 * math.Pi * (float64(j) / unit53))
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
	return b2u(v > thr)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
