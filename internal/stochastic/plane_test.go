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

	// The threshold's contract at its boundary: a draw k = NextUint64()>>11
	// passes Next() < p, i.e. k/2⁵³ < p, exactly when k < probThreshold(p).
	// So k = threshold−1 must pass and k = threshold must not.
	ps := []float64{
		0x1p-53, 0.5, 1 - 0x1p-53, // the edges of (0, 1)
		0.375, 12345 * 0x1p-53, // p·2⁵³ an integer
		1e-300, math.SmallestNonzeroFloat64, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0),
	}
	src := NewSplitMix64(7)
	for i := 0; i < 20000; i++ {
		// Uniform p and p spread over 40 binades below 1/2.
		p := src.Next()
		if i%2 == 1 {
			p = math.Ldexp(p, -int(src.NextUint64()%40))
		}
		if p > 0 {
			ps = append(ps, p)
		}
	}
	for _, p := range ps {
		thr := probThreshold(p)
		if thr == 0 || thr > 1<<53 {
			t.Fatalf("p=%g: threshold %d outside [1, 2⁵³]", p, thr)
		}
		if k := thr - 1; !(float64(k)/(1<<53) < p) {
			t.Fatalf("p=%g: draw k=%d below the threshold fails Next() < p", p, k)
		}
		if k := thr; k < 1<<53 && float64(k)/(1<<53) < p {
			t.Fatalf("p=%g: draw k=%d at the threshold passes Next() < p", p, k)
		}
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
				if plane[w] != want.words[w] {
					t.Fatalf("n=%d p=%g word %d: %x vs %x", n, p, w, plane[w], want.words[w])
				}
			}

			wantL := NewSNG(MustLFSR(16, 5)).Generate(p, n)
			FillPlane(MustLFSR(16, 5), p, n, plane)
			for w := 0; w < wantL.WordCount(); w++ {
				if plane[w] != wantL.words[w] {
					t.Fatalf("LFSR n=%d p=%g word %d differs", n, p, w)
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

// TestPlaneCombinatorsMatchBitstreamGates checks the plane multiplexer
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
			if dst[w] != want.words[w] {
				t.Fatalf("%s word %d: %x vs %x", name, w, dst[w], want.words[w])
			}
		}
	}
	MuxPlanes(dst, ps, pa, pb)
	check("mux", Mux(bs, ba, bb))
}

// TestPlaneAliasing: the multiplexer allows dst to alias an input —
// the scratch-reuse pattern of the tiled engines.
func TestPlaneAliasing(t *testing.T) {
	const n = 100
	words := WordsFor(n)
	pa := make([]uint64, words)
	pb := make([]uint64, words)
	ps := make([]uint64, words)
	FillPlane(NewSplitMix64(4), 0.4, n, pa)
	FillPlane(NewSplitMix64(5), 0.8, n, pb)
	FillPlane(NewSplitMix64(6), 0.5, n, ps)
	want := Mux(planeToBitstream(ps, n), planeToBitstream(pa, n), planeToBitstream(pb, n))
	MuxPlanes(pa, ps, pa, pb)
	for w := 0; w < want.WordCount(); w++ {
		if pa[w] != want.words[w] {
			t.Fatalf("aliased mux word %d differs", w)
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
	mustPanic("FillAbsDiffPlane", func() { FillAbsDiffPlane(NewSplitMix64(1), 0.5, 0.5, 100, short) })
	mustPanic("MuxPlanes", func() { MuxPlanes(ok, short, ok, ok) })
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

// FillCorrelatedPlanes fills pa and pb with *maximally correlated*
// n-bit streams of values a and b: each clock draws ONE shared uniform
// sample and thresholds it against both probabilities, so the streams
// overlap as much as their values allow and XOR computes |a−b| exactly
// (the absolute-difference idiom of the edge-detection workload). It
// is the serial oracle for the fused FillAbsDiffPlane.
//
// Unlike FillPlane, one sample is consumed per bit even for degenerate
// probabilities — the draw is shared, so it cannot be skipped for one
// threshold only.
func FillCorrelatedPlanes(src NumberSource, a, b float64, n int, pa, pb []uint64) {
	words := WordsFor(n)
	checkPlane("pa", pa, words)
	checkPlane("pb", pb, words)
	for w := 0; w < words; w++ {
		nbits := planeWordBits(n, w)
		var wa, wb uint64
		for t := 0; t < nbits; t++ {
			r := src.Next()
			if r < a {
				wa |= 1 << uint(t)
			}
			if r < b {
				wb |= 1 << uint(t)
			}
		}
		pa[w], pb[w] = wa, wb
	}
}

// XorPlanes stores a XOR b into dst word-at-a-time: the correlated
// absolute-difference gate on planes. dst may alias a or b.
func XorPlanes(dst, a, b []uint64) {
	checkPlane("a", a, len(dst))
	checkPlane("b", b, len(dst))
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}
