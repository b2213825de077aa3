package stochastic

import (
	"math"
	"testing"
)

// planeToBitstream copies an n-bit plane into a Bitstream for
// comparison against the reference gate implementations.
func planeToBitstream(p []uint64, n int) *Bitstream {
	b := NewBitstream(n)
	for w := 0; w < b.WordCount(); w++ {
		b.SetWord(w, p[w])
	}
	return b
}

func TestWordsFor(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}} {
		if got := WordsFor(tc[0]); got != tc[1] {
			t.Errorf("WordsFor(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestProbThreshold(t *testing.T) {
	if probThreshold(0) != 0 || probThreshold(-3) != 0 {
		t.Error("degenerate zero threshold")
	}
	if probThreshold(1) != 1<<53 || probThreshold(2) != 1<<53 {
		t.Error("degenerate one threshold")
	}
	if probThreshold(0.5) != 1<<52 {
		t.Errorf("threshold(0.5) = %d", probThreshold(0.5))
	}
}

// TestFillPlaneMatchesGenerate: the plane fill is SNG.Generate without
// the Bitstream — identical bits from equal sources, for both the
// devirtualized SplitMix64 path and a generic source.
func TestFillPlaneMatchesGenerate(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
			want := NewSNG(NewSplitMix64(42)).Generate(p, n)
			plane := make([]uint64, WordsFor(n))
			FillPlane(NewSplitMix64(42), p, n, plane)
			for w := 0; w < want.WordCount(); w++ {
				if plane[w] != want.Word(w) {
					t.Fatalf("n=%d p=%g word %d: %x vs %x", n, p, w, plane[w], want.Word(w))
				}
			}

			wantL := NewSNG(MustLFSR(16, 5)).Generate(p, n)
			FillPlane(MustLFSR(16, 5), p, n, plane)
			for w := 0; w < wantL.WordCount(); w++ {
				if plane[w] != wantL.Word(w) {
					t.Fatalf("LFSR n=%d p=%g word %d differs", n, p, w)
				}
			}
		}
	}
}

// referenceCorrelatedPair is the serial definition the kernel must
// match: one shared draw per clock, thresholded against both values.
func referenceCorrelatedPair(src NumberSource, a, b float64, n int) (*Bitstream, *Bitstream) {
	sa, sb := NewBitstream(n), NewBitstream(n)
	for i := 0; i < n; i++ {
		r := src.Next()
		if r < a {
			sa.Set(i, 1)
		}
		if r < b {
			sb.Set(i, 1)
		}
	}
	return sa, sb
}

func TestFillCorrelatedPlanesMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 64, 65, 777} {
		for _, pair := range [][2]float64{{0.3, 0.7}, {0, 1}, {0.5, 0.5}, {1, 0.2}, {0, 0}} {
			a, b := pair[0], pair[1]
			wa, wb := referenceCorrelatedPair(NewSplitMix64(9), a, b, n)
			pa := make([]uint64, WordsFor(n))
			pb := make([]uint64, WordsFor(n))
			FillCorrelatedPlanes(NewSplitMix64(9), a, b, n, pa, pb)
			for w := 0; w < wa.WordCount(); w++ {
				if pa[w] != wa.Word(w) || pb[w] != wb.Word(w) {
					t.Fatalf("n=%d (%g,%g) word %d: (%x,%x) vs (%x,%x)",
						n, a, b, w, pa[w], pb[w], wa.Word(w), wb.Word(w))
				}
			}

			// Generic-source path (no SplitMix64 devirtualization).
			ga, gb := referenceCorrelatedPair(NewChaoticSource(0.11), a, b, n)
			FillCorrelatedPlanes(NewChaoticSource(0.11), a, b, n, pa, pb)
			for w := 0; w < ga.WordCount(); w++ {
				if pa[w] != ga.Word(w) || pb[w] != gb.Word(w) {
					t.Fatalf("chaotic n=%d (%g,%g) word %d differs", n, a, b, w)
				}
			}
		}
	}
}

// TestFillCorrelatedPlanesConsumption: the pair fill always consumes
// one draw per clock — even for degenerate probabilities, because the
// draw is shared — so differently parameterized fills stay aligned.
func TestFillCorrelatedPlanesConsumption(t *testing.T) {
	const n = 130
	pa := make([]uint64, WordsFor(n))
	pb := make([]uint64, WordsFor(n))
	src := NewSplitMix64(3)
	FillCorrelatedPlanes(src, 0, 1, n, pa, pb)
	ref := NewSplitMix64(3)
	for i := 0; i < n; i++ {
		ref.Next()
	}
	if src.Next() != ref.Next() {
		t.Error("degenerate pair fill consumed wrong number of draws")
	}
	if PlaneOnes(pa) != 0 || PlaneOnes(pb) != n {
		t.Errorf("degenerate fill: %d / %d ones", PlaneOnes(pa), PlaneOnes(pb))
	}
}

// TestCorrelatedXorIsAbsDiff: the whole point of sharing the draw —
// XOR of the pair converges to |a−b|, far below the independent-stream
// expectation a(1−b) + b(1−a).
func TestCorrelatedXorIsAbsDiff(t *testing.T) {
	const n = 1 << 16
	a, b := 0.7, 0.45
	pa := make([]uint64, WordsFor(n))
	pb := make([]uint64, WordsFor(n))
	FillCorrelatedPlanes(NewSplitMix64(1), a, b, n, pa, pb)
	d := make([]uint64, WordsFor(n))
	XorPlanes(d, pa, pb)
	got := float64(PlaneOnes(d)) / n
	if math.Abs(got-math.Abs(a-b)) > 0.01 {
		t.Errorf("correlated XOR = %g, want |a-b| = %g", got, math.Abs(a-b))
	}
	if c := Correlation(planeToBitstream(pa, n), planeToBitstream(pb, n)); c < 0.99 {
		t.Errorf("pair correlation = %g, want ~1", c)
	}
}

// TestFillAbsDiffPlaneMatchesPairXor: the fused gate equals the
// correlated pair followed by XOR, on both source paths, and leaves
// its generator where the pair leaves it.
func TestFillAbsDiffPlaneMatchesPairXor(t *testing.T) {
	for _, n := range []int{1, 64, 65, 777} {
		for _, pair := range [][2]float64{{0.3, 0.7}, {0, 1}, {0.5, 0.5}, {1, 0.2}, {0.9, 0.9}} {
			a, b := pair[0], pair[1]
			words := WordsFor(n)
			pa := make([]uint64, words)
			pb := make([]uint64, words)
			want := make([]uint64, words)
			got := make([]uint64, words)

			ref, src := NewSplitMix64(13), NewSplitMix64(13)
			FillCorrelatedPlanes(ref, a, b, n, pa, pb)
			XorPlanes(want, pa, pb)
			FillAbsDiffPlane(src, a, b, n, got)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("n=%d (%g,%g) word %d: %x vs %x", n, a, b, w, got[w], want[w])
				}
			}
			if g, r := src.NextUint64(), ref.NextUint64(); g != r {
				t.Fatalf("n=%d (%g,%g): next draw after the gate %x, after the pair %x", n, a, b, g, r)
			}

			FillCorrelatedPlanes(NewChaoticSource(0.2), a, b, n, pa, pb)
			XorPlanes(want, pa, pb)
			FillAbsDiffPlane(NewChaoticSource(0.2), a, b, n, got)
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("chaotic n=%d (%g,%g) word %d differs", n, a, b, w)
				}
			}
		}
	}
}

func TestFillAbsDiffPlaneValue(t *testing.T) {
	const n = 1 << 16
	d := make([]uint64, WordsFor(n))
	FillAbsDiffPlane(NewSplitMix64(2), 0.8, 0.15, n, d)
	if got := float64(PlaneOnes(d)) / n; math.Abs(got-0.65) > 0.01 {
		t.Errorf("|0.8-0.15| stream = %g", got)
	}
}

// TestPlaneCombinatorsMatchBitstreamGates checks each plane combinator
// against the allocating Bitstream gate it replaces.
func TestPlaneCombinatorsMatchBitstreamGates(t *testing.T) {
	const n = 200
	words := WordsFor(n)
	mk := func(p float64, seed uint64) ([]uint64, *Bitstream) {
		pl := make([]uint64, words)
		FillPlane(NewSplitMix64(seed), p, n, pl)
		return pl, planeToBitstream(pl, n)
	}
	pa, ba := mk(0.6, 1)
	pb, bb := mk(0.3, 2)
	ps, bs := mk(0.5, 3)
	dst := make([]uint64, words)

	check := func(name string, want *Bitstream) {
		t.Helper()
		for w := 0; w < want.WordCount(); w++ {
			if dst[w] != want.Word(w) {
				t.Fatalf("%s word %d: %x vs %x", name, w, dst[w], want.Word(w))
			}
		}
	}
	XorPlanes(dst, pa, pb)
	check("xor", ba.Xor(bb))
	AndPlanes(dst, pa, pb)
	check("and", ba.And(bb))
	MuxPlanes(dst, ps, pa, pb)
	check("mux", Mux(bs, ba, bb))
	NotPlanes(dst, pa, n)
	check("not", ba.Not())
	// The complement must preserve the zero-tail invariant.
	if dst[words-1]>>(uint(n%64)) != 0 {
		t.Error("NotPlanes left tail bits set")
	}
	if got := PlaneOnes(dst); got != n-ba.Ones() {
		t.Errorf("complement ones = %d, want %d", got, n-ba.Ones())
	}
}

// TestPlaneAliasing: combinators allow dst to alias an input — the
// scratch-reuse pattern of the tiled engines.
func TestPlaneAliasing(t *testing.T) {
	const n = 100
	words := WordsFor(n)
	pa := make([]uint64, words)
	pb := make([]uint64, words)
	FillPlane(NewSplitMix64(4), 0.4, n, pa)
	FillPlane(NewSplitMix64(5), 0.8, n, pb)
	want := planeToBitstream(pa, n).Xor(planeToBitstream(pb, n))
	XorPlanes(pa, pa, pb)
	for w := 0; w < want.WordCount(); w++ {
		if pa[w] != want.Word(w) {
			t.Fatalf("aliased xor word %d differs", w)
		}
	}
}

func TestPlaneSizePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	short := make([]uint64, 1)
	ok := make([]uint64, 2)
	mustPanic("FillPlane", func() { FillPlane(NewSplitMix64(1), 0.5, 100, short) })
	mustPanic("FillCorrelatedPlanes", func() {
		FillCorrelatedPlanes(NewSplitMix64(1), 0.5, 0.5, 100, ok, short)
	})
	mustPanic("XorPlanes", func() { XorPlanes(ok, ok, short) })
	mustPanic("MuxPlanes", func() { MuxPlanes(ok, short, ok, ok) })
	mustPanic("NotPlanes", func() { NotPlanes(short, short, 100) })
}

func TestSplitMix64Reseed(t *testing.T) {
	s := NewSplitMix64(7)
	first := s.NextUint64()
	s.NextUint64()
	s.Reseed(7)
	if got := s.NextUint64(); got != first {
		t.Errorf("reseeded sequence diverged: %x vs %x", got, first)
	}
}
