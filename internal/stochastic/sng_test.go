package stochastic

import (
	"math"
	"testing"
)

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
	g := NewSNG(MustLFSR(16, 0xACE1))
	b := g.Generate(0.3, 1<<16)
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
	g := NewSNG(NewCounterSource(8))
	b := g.Generate(0.5, 8)
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
	g := NewSNG(NewChaoticSource(0.31))
	b := g.Generate(0.7, 1<<16)
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

// Next implements NumberSource.
func (c *CounterSource) Next() float64 {
	v := float64(c.i) / float64(c.m)
	c.i = (c.i + 1) % c.m
	return v
}
