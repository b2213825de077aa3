package stochastic

import (
	"fmt"
	"math"
	"testing"
)

// numberSource is any source of uniform samples on [0, 1): SplitMix64
// and the test oracles below (the hardware LFSR, the chaotic map and
// the unary ramp), which production code never holds.
type numberSource interface {
	Next() float64
}

// generateFrom is the one-draw-per-bit comparator of the paper's
// Fig. 1(a) over any numberSource: no draw for p <= 0 or p >= 1, and
// otherwise bit i is Next() < p, the predicate of ReSC.Step. On a
// SplitMix64 it is SNG.Generate, which pins the integer word kernels
// to the float compare.
func generateFrom(src numberSource, p float64, n int) *Bitstream {
	b := NewBitstream(n)
	for i := 0; i < n; i++ {
		switch {
		case p <= 0:
		case p >= 1:
			b.Set(i, 1)
		case src.Next() < p:
			b.Set(i, 1)
		}
	}
	return b
}

func TestSNGConvergence(t *testing.T) {
	g := NewSNG(NewSplitMix64(99))
	for _, p := range []float64{0.1, 0.5, 0.9} {
		b := g.Generate(p, 1<<16)
		if math.Abs(b.Value()-p) > 0.01 {
			t.Errorf("p=%g: estimate %g", p, b.Value())
		}
	}
}

func TestSNGClamping(t *testing.T) {
	g := NewSNG(NewSplitMix64(1))
	if g.NextBit(-0.5) != 0 || g.NextBit(0) != 0 {
		t.Error("p<=0 should always emit 0")
	}
	if g.NextBit(1) != 1 || g.NextBit(2) != 1 {
		t.Error("p>=1 should always emit 1")
	}
}

func TestSNGNilSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSNG(nil) did not panic")
		}
	}()
	NewSNG(nil)
}

func TestLFSRMaximalPeriodExhaustive(t *testing.T) {
	// Brute-force verify every tabulated mask up to width 20 (width
	// 22 takes ~4M steps; skip the slowest in -short runs).
	if testing.Short() {
		t.Skip("exhaustive LFSR periods skipped in short mode")
	}
	for width := range lfsrTaps {
		if width > 20 {
			continue
		}
		l := MustLFSR(width, 1)
		want := l.Period()
		start := l.state
		var period uint64
		for {
			l.Step()
			period++
			if l.state == start {
				break
			}
			if period > want {
				t.Fatalf("width %d: period exceeds 2^w-1", width)
			}
		}
		if period != want {
			t.Errorf("width %d: period %d, want %d", width, period, want)
		}
	}
}

func TestLFSRMaximalPeriod(t *testing.T) {
	for _, width := range []uint{4, 5, 6, 7, 8} {
		l := MustLFSR(width, 1)
		seen := map[uint64]bool{}
		start := l.state
		period := uint64(0)
		for {
			l.Step()
			period++
			if l.state == start {
				break
			}
			if seen[l.state] {
				t.Fatalf("width %d: cycle without returning to start", width)
			}
			seen[l.state] = true
			if period > l.Period()+1 {
				t.Fatalf("width %d: period exceeds 2^w-1", width)
			}
		}
		if period != l.Period() {
			t.Errorf("width %d: period %d, want %d", width, period, l.Period())
		}
	}
}

func TestLFSRNeverZero(t *testing.T) {
	l := MustLFSR(8, 0) // zero seed must be remapped
	for i := 0; i < 300; i++ {
		if l.Step() == 0 {
			t.Fatal("LFSR reached the absorbing zero state")
		}
	}
}

func TestLFSRUnsupportedWidth(t *testing.T) {
	if _, err := NewLFSR(3, 1); err == nil {
		t.Error("width 3 unexpectedly supported")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLFSR did not panic")
		}
	}()
	MustLFSR(3, 1)
}

func TestLFSRUniformity(t *testing.T) {
	// Over a full period the normalized outputs are equidistributed.
	l := MustLFSR(10, 17)
	n := int(l.Period())
	sum := 0.0
	for i := 0; i < n; i++ {
		v := l.Next()
		if v < 0 || v >= 1 {
			t.Fatalf("Next() = %g outside [0,1)", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("full-period mean = %g, want ~0.5", mean)
	}
}

func TestLFSRSNGAccuracy(t *testing.T) {
	b := generateFrom(MustLFSR(16, 0xACE1), 0.3, 1<<16)
	if math.Abs(b.Value()-0.3) > 0.01 {
		t.Errorf("LFSR SNG estimate = %g", b.Value())
	}
}

func TestCounterSourceRamp(t *testing.T) {
	c := NewCounterSource(4)
	want := []float64{0, 0.25, 0.5, 0.75, 0, 0.25}
	for i, w := range want {
		if got := c.Next(); math.Abs(got-w) > 1e-15 {
			t.Errorf("ramp[%d] = %g, want %g", i, got, w)
		}
	}
	// Unary generation is exact for p = k/m.
	b := generateFrom(NewCounterSource(8), 0.5, 8)
	if b.Ones() != 4 {
		t.Errorf("unary 0.5 over 8 bits = %d ones", b.Ones())
	}
	if got := NewCounterSource(0); got.m != 1 {
		t.Error("zero modulus not clamped")
	}
}

func TestChaoticSourceUniform(t *testing.T) {
	c := NewChaoticSource(0.123456)
	n := 1 << 16
	buckets := make([]int, 10)
	sum := 0.0
	for i := 0; i < n; i++ {
		v := c.Next()
		if v < 0 || v > 1 {
			t.Fatalf("chaotic sample %g outside [0,1]", v)
		}
		idx := int(v * 10)
		if idx == 10 {
			idx = 9
		}
		buckets[idx]++
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("chaotic mean = %g", mean)
	}
	for i, c := range buckets {
		frac := float64(c) / float64(n)
		if frac < 0.06 || frac > 0.14 {
			t.Errorf("bucket %d fraction %g far from uniform", i, frac)
		}
	}
}

func TestChaoticSourceSeedFolding(t *testing.T) {
	// Degenerate seeds must not produce a stuck orbit.
	for _, seed := range []float64{0, 1, 0.75, -3.5, 1e9} {
		c := NewChaoticSource(seed)
		a, b := c.Next(), c.Next()
		if a == b {
			t.Errorf("seed %g: constant orbit", seed)
		}
	}
}

func TestChaoticSNGAccuracy(t *testing.T) {
	b := generateFrom(NewChaoticSource(0.31), 0.7, 1<<16)
	if math.Abs(b.Value()-0.7) > 0.02 {
		t.Errorf("chaotic SNG estimate = %g", b.Value())
	}
}

func TestSplitMix64Reproducible(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.NextUint64() != b.NextUint64() {
			t.Fatal("same-seed sequences diverge")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.NextUint64() == c.NextUint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

func TestSplitMix64Range(t *testing.T) {
	s := NewSplitMix64(7)
	for i := 0; i < 1000; i++ {
		v := s.Next()
		if v < 0 || v >= 1 {
			t.Fatalf("Next() = %g outside [0,1)", v)
		}
	}
}

func TestSNGVarianceScalesInversely(t *testing.T) {
	// SC estimator variance ~ p(1-p)/L: quadrupling the length should
	// roughly halve the error. Averaged over trials to be stable.
	p := 0.5
	trials := 200
	errAt := func(length int) float64 {
		s := 0.0
		for tr := 0; tr < trials; tr++ {
			g := NewSNG(NewSplitMix64(uint64(1000 + tr)))
			v := g.Generate(p, length).Value()
			s += (v - p) * (v - p)
		}
		return math.Sqrt(s / float64(trials))
	}
	e256 := errAt(256)
	e4096 := errAt(4096)
	ratio := e256 / e4096
	if ratio < 2.5 || ratio > 6.5 {
		t.Errorf("error ratio 256->4096 = %g, want ~4", ratio)
	}
}

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

// Next implements numberSource.
func (c *CounterSource) Next() float64 {
	v := float64(c.i) / float64(c.m)
	c.i = (c.i + 1) % c.m
	return v
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
// compile-time-known widths in tests.
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

// Next implements numberSource: the state normalized to [0, 1).
func (l *LFSR) Next() float64 {
	s := l.Step()
	return float64(s-1) / float64(uint64(1)<<l.width-1)
}

// Period returns the sequence period 2^width - 1.
func (l *LFSR) Period() uint64 { return uint64(1)<<l.width - 1 }

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

// Next implements numberSource.
func (c *ChaoticSource) Next() float64 {
	c.step()
	return 2 / math.Pi * math.Asin(math.Sqrt(c.x))
}
