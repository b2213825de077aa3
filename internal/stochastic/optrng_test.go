package stochastic

import (
	"fmt"
	"math"
	"testing"
)

func TestThresholdForQuantiles(t *testing.T) {
	// Analytic checks of the arcsine quantile: p=1/2 -> θ=1/2;
	// extremes clamp.
	if got := ThresholdFor(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("θ(0.5) = %g", got)
	}
	if ThresholdFor(0) != 1 || ThresholdFor(-1) != 1 {
		t.Error("p<=0 must threshold everything out")
	}
	if ThresholdFor(1) != 0 || ThresholdFor(2) != 0 {
		t.Error("p>=1 must pass everything")
	}
	// Monotone decreasing in p.
	prev := 1.1
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cur := ThresholdFor(p)
		if cur >= prev {
			t.Fatalf("θ not decreasing at p=%g", p)
		}
		prev = cur
	}
}

func TestChaoticLaserSNGAccuracy(t *testing.T) {
	g, err := NewChaoticLaserSNG(0.2718, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		b := g.Generate(p, 1<<16)
		if math.Abs(b.Value()-p) > 0.02 {
			t.Errorf("p=%g: estimate %g", p, b.Value())
		}
	}
}

func TestChaoticLaserSNGValidation(t *testing.T) {
	if _, err := NewChaoticLaserSNG(0.3, -1); err == nil {
		t.Error("negative decorrelation accepted")
	}
}

func TestChaoticLaserStreamsUsableByReSC(t *testing.T) {
	// The optical randomizer can drive the electronic ReSC: the
	// paper's full-optical vision for the interfaces (future work
	// iii).
	poly := PaperF1()
	const length = 1 << 15
	// Distinct seeds and decorrelation counts keep the seven chaotic
	// orbits mutually independent enough for the Bernstein identity.
	stream := func(i int, p float64) *Bitstream {
		g, err := NewChaoticLaserSNG(0.11+0.097*float64(i), 2+i)
		if err != nil {
			t.Fatal(err)
		}
		return generateFrom(g.AsNumberSource(), p, length)
	}
	data := []*Bitstream{stream(0, 0.5), stream(1, 0.5), stream(2, 0.5)}
	coef := make([]*Bitstream, len(poly.Coef))
	for k, b := range poly.Coef {
		coef[k] = stream(3+k, b)
	}
	out, _, err := EvaluateStreams(data, coef)
	if err != nil {
		t.Fatal(err)
	}
	// Physical RNGs trade a little bias for all-optical generation;
	// allow a slightly wider band than the SplitMix baseline.
	if got := out.Value(); math.Abs(got-0.5) > 0.03 {
		t.Errorf("chaotic-driven ReSC f1(0.5) = %g", got)
	}
}

func TestChaoticLaserLowSerialCorrelation(t *testing.T) {
	// With decorrelation iterations the bit-to-bit correlation of a
	// p=0.5 stream should be near zero.
	g, err := NewChaoticLaserSNG(0.37, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 15
	b := g.Generate(0.5, n)
	// Lag-1 serial correlation via the shifted-stream SCC.
	shifted := NewBitstream(n)
	for i := 0; i < n-1; i++ {
		shifted.Set(i, b.Get(i+1))
	}
	if c := Correlation(b, shifted); math.Abs(c) > 0.06 {
		t.Errorf("lag-1 correlation = %g", c)
	}
}

func TestChaoticAdapterUniform(t *testing.T) {
	g, err := NewChaoticLaserSNG(0.41, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := g.AsNumberSource()
	n := 1 << 14
	sum := 0.0
	for i := 0; i < n; i++ {
		v := src.Next()
		if v < 0 || v > 1 {
			t.Fatalf("sample %g outside [0,1]", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("adapter mean = %g", mean)
	}
}

// TestChaoticRandomizerOnOpticalUnit Monte-Carlos the ReSC semantics
// of a degree-2 unit with every stream produced by a chaotic-laser
// SNG — the all-optical randomizer vision. Only the selected
// coefficient generator clocks each cycle.
func TestChaoticRandomizerOnOpticalUnit(t *testing.T) {
	poly := NewBernstein([]float64{0.25, 0.625, 0.75})
	const bits = 1 << 15
	x := 0.5
	acc := 0.0
	zs := make([]*ChaoticLaserSNG, 3)
	for i := range zs {
		zi, err := NewChaoticLaserSNG(0.51+0.11*float64(i), 2+i)
		if err != nil {
			t.Fatal(err)
		}
		zs[i] = zi
	}
	dataA, _ := NewChaoticLaserSNG(0.67, 4)
	dataB, _ := NewChaoticLaserSNG(0.83, 5)
	for k := 0; k < bits; k++ {
		w := dataA.NextBit(x) + dataB.NextBit(x)
		acc += float64(zs[w].NextBit(poly.Coef[w]))
	}
	got := acc / bits
	if want := poly.Eval(x); math.Abs(got-want) > 0.03 {
		t.Errorf("chaotic optical ReSC = %g, want %g", got, want)
	}
}

// BenchmarkAblationSNG compares randomizer implementations (LFSR vs
// chaotic vs SplitMix64) by ReSC accuracy at equal stream length —
// the paper's future-work item iii considers chaotic lasers as
// optical randomizers. Every source feeds one comparator stream, and
// EvaluateStreams combines them: each source is drawn in cycle order,
// as ReSC.Step draws it.
func BenchmarkAblationSNG(b *testing.B) {
	poly := PaperF1()
	const x, length = 0.5, 4096
	sources := map[string]func(i int) numberSource{
		"lfsr": func(i int) numberSource {
			return MustLFSR(16, uint64(0xACE1+i*7919))
		},
		"chaotic": func(i int) numberSource {
			return NewChaoticSource(0.1 + 0.05*float64(i))
		},
		"splitmix": func(i int) numberSource {
			return NewSplitMix64(uint64(1 + i))
		},
	}
	want := poly.Eval(x)
	for name, mk := range sources {
		var errAbs float64
		for i := 0; i < b.N; i++ {
			data := make([]*Bitstream, poly.Degree())
			for j := range data {
				data[j] = generateFrom(mk(j), x, length)
			}
			coef := make([]*Bitstream, len(poly.Coef))
			for k, c := range poly.Coef {
				coef[k] = generateFrom(mk(10+k), c, length)
			}
			out, _, err := EvaluateStreams(data, coef)
			if err != nil {
				b.Fatal(err)
			}
			errAbs = math.Abs(out.Value() - want)
		}
		b.ReportMetric(errAbs, "abs_err_"+name)
	}
}

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

// AsNumberSource adapts the chaotic laser to a numberSource (uniform
// samples) so it can drive the one-draw comparator directly.
func (g *ChaoticLaserSNG) AsNumberSource() numberSource {
	return chaoticAdapter{g}
}

type chaoticAdapter struct{ g *ChaoticLaserSNG }

func (a chaoticAdapter) Next() float64 {
	for i := 0; i < a.g.Decorrelate; i++ {
		a.g.src.Next()
	}
	return a.g.src.Next()
}
