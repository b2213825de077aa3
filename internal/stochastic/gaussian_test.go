package stochastic

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// fillDecisions is the reference ThresholdWord must reproduce:
// FillScaled noise added to each level and compared with thr.
func fillDecisions(g *Gaussian, levels []float64, thr, sigma float64) uint64 {
	var noise [64]float64
	g.FillScaled(noise[:len(levels)], sigma)
	var w uint64
	for t, l := range levels {
		if l+noise[t] > thr {
			w |= 1 << t
		}
	}
	return w
}

// screenCuts is ScreenCut for every level.
func screenCuts(levels []float64, thr, sigma float64) []uint64 {
	cuts := make([]uint64, len(levels))
	for t, l := range levels {
		cuts[t] = ScreenCut(l, thr, sigma)
	}
	return cuts
}

// checkThresholdWord runs `blocks` consecutive ThresholdWord calls and
// the FillScaled reference on twin generators seeded with seed —
// after one Next when spare is set, so a cached spare is pending on
// entry — and requires equal words and equal generator state (source
// position, spare value and spare flag) after every block.
func checkThresholdWord(t *testing.T, seed uint64, levels []float64, thr, sigma float64, spare bool, blocks int) {
	t.Helper()
	got, want := NewGaussian(NewSplitMix64(seed)), NewGaussian(NewSplitMix64(seed))
	if spare {
		got.Next()
		want.Next()
	}
	cuts := screenCuts(levels, thr, sigma)
	for b := 0; b < blocks; b++ {
		gw := got.ThresholdWord(levels, cuts, thr, sigma)
		ww := fillDecisions(want, levels, thr, sigma)
		if gw != ww {
			t.Fatalf("block %d (seed %d, spare %v, thr %g, sigma %g, levels %v): word %#x, FillScaled gives %#x",
				b, seed, spare, thr, sigma, levels, gw, ww)
		}
		if *got.src != *want.src || got.has != want.has || math.Float64bits(got.spare) != math.Float64bits(want.spare) {
			t.Fatalf("block %d (seed %d, spare %v): generator state {%v %v %v}, FillScaled leaves {%v %v %v}",
				b, seed, spare, *got.src, got.has, got.spare, *want.src, want.has, want.spare)
		}
	}
}

// alternating returns n levels alternating thr+d, thr-d: the worst-case
// one/zero pattern around a midpoint threshold.
func alternating(n int, thr, d float64) []float64 {
	out := make([]float64, n)
	for t := range out {
		out[t] = thr + d
		if t%2 != 0 {
			out[t] = thr - d
		}
	}
	return out
}

// ulpLevels returns n levels stepping through the floats within a few
// ulps either side of thr.
func ulpLevels(n int, thr float64) []float64 {
	out := make([]float64, n)
	for t := range out {
		out[t] = math.Float64frombits(math.Float64bits(thr) + uint64(t%9) - 4)
	}
	return out
}

func TestThresholdWordMatchesFill(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name       string
		levels     []float64
		thr, sigma float64
	}{
		{"empty", nil, 0.5, 0.1},
		{"one slot", []float64{0.6}, 0.5, 0.1},
		{"odd 3", alternating(3, 0.5, 0.2), 0.5, 0.1},
		{"odd 63", alternating(63, 0.5, 0.2), 0.5, 0.1},
		{"full 64 at R=1.28", alternating(64, 1, 1.2816), 1, 1},
		{"full 64 at R=3.72", alternating(64, 1, 3.719), 1, 1},
		{"full 64 at R=8.6 (always screened)", alternating(64, 1, 8.6), 1, 1},
		{"mixed distances", []float64{3, -1, 1.0001, 0.9999, 2, 0, 1, 1, 5, -3}, 1, 0.5},
		{"ulps around thr", ulpLevels(64, 0.37), 0.37, 1e-3},
		{"ulps around thr, tiny sigma", ulpLevels(64, 0.37), 0.37, 1e-17},
		{"ulps around zero thr", ulpLevels(64, 0), 0, 1e-300},
		{"sigma 0", alternating(64, 0.5, 1e-9), 0.5, 0},
		{"sigma negative", alternating(64, 0.5, 0.1), 0.5, -0.1},
		{"sigma tiny", alternating(64, 0.5, 1e-12), 0.5, 1e-13},
		{"sigma subnormal", alternating(64, 1e-310, 1e-310), 1e-310, 5e-324},
		{"sigma huge", alternating(64, 0.5, 1e300), 0.5, 1e300},
		{"sigma max", alternating(64, 0.5, 1e308), 0.5, math.MaxFloat64},
		{"sigma +Inf", alternating(64, 0.5, 0.1), 0.5, math.Inf(1)},
		{"sigma NaN", alternating(64, 0.5, 0.1), 0.5, nan},
		{"thr NaN", alternating(64, 0.5, 0.1), nan, 0.1},
		{"levels non-finite", []float64{nan, math.Inf(1), math.Inf(-1), 0.5, 1e308, -1e308}, 0.5, 0.1},
		{"levels near overflow", alternating(64, 1.7e308, 1e307), 1.7e308, 1e306},
	}
	for _, c := range cases {
		for _, spare := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spare=%v", c.name, spare), func(t *testing.T) {
				for seed := uint64(1); seed <= 8; seed++ {
					checkThresholdWord(t, seed, c.levels, c.thr, c.sigma, spare, 64)
				}
			})
		}
	}
}

// TestThresholdWordPanicsOnBadShape pins the length contract.
func TestThresholdWordPanicsOnBadShape(t *testing.T) {
	g := NewGaussian(NewSplitMix64(1))
	for name, call := range map[string]func(){
		"65 levels":    func() { g.ThresholdWord(make([]float64, 65), make([]uint64, 65), 0, 1) },
		"missing cuts": func() { g.ThresholdWord(make([]float64, 4), make([]uint64, 3), 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestThresholdWordAllocatesNothing(t *testing.T) {
	g := NewGaussian(NewSplitMix64(3))
	levels := alternating(64, 1, 2)
	cuts := screenCuts(levels, 1, 1)
	if n := testing.AllocsPerRun(100, func() { g.ThresholdWord(levels, cuts, 1, 1) }); n != 0 {
		t.Errorf("ThresholdWord allocates %v times per call", n)
	}
}

func TestScreenCutNeverScreens(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct{ level, thr, sigma float64 }{
		{nan, 0, 1}, {0, nan, 1}, {1, 0, nan},
		{inf, 0, 1}, {-inf, 0, 1}, {1, inf, 1}, {1, 0, inf},
		{1, 0, 0}, {1, 0, -1}, {1, 0, 1e-305}, {1, 0, 5e-324},
		{0.5, 0.5, 1},             // on the threshold
		{0.5 + 1e-16, 0.5, 1e-20}, // inside the shrunk distance
		{1.001, 1, 1},             // radius below the e >= 2^-20 floor
		{math.MaxFloat64, -math.MaxFloat64, 1},
	} {
		if got := ScreenCut(c.level, c.thr, c.sigma); got != noScreen {
			t.Errorf("ScreenCut(%g, %g, %g) = %d, want never", c.level, c.thr, c.sigma, got)
		}
	}
}

// TestScreenCutEngages: the margins cost the screen almost nothing —
// the cut sits at exp(−R²/2) to a relative 1e-6 — and a radius beyond
// what any 53-bit draw can produce screens every draw.
func TestScreenCutEngages(t *testing.T) {
	for _, r := range []float64{0.1, 1, 1.2816, 2.3263, 3.719} {
		cut := ScreenCut(1+r*0.01, 1, 0.01)
		want := math.Exp(-r*r/2) * unit53
		if rel := math.Abs(float64(cut)-want) / want; rel > 1e-6 {
			t.Errorf("R=%g: cut %d, want about %.0f (rel %g)", r, cut, want, rel)
		}
	}
	if cut := ScreenCut(10, 0, 1); cut != 0 {
		t.Errorf("R=10: cut %d, want 0", cut)
	}
}

// TestScreenCutSound replays the boundary of the screen: for levels,
// thresholds and sigmas across many scales, the draws just past the
// cut (the largest radii the screen admits), at the worst angles and
// at random ones, must give the decision the screen assumes.
func TestScreenCutSound(t *testing.T) {
	src := NewSplitMix64(2024)
	checked := 0
	for i := 0; i < 20000; i++ {
		thr := (src.Next() - 0.5) * math.Pow(10, float64(int(src.Next()*40))-20)
		sigma := math.Pow(10, float64(int(src.Next()*40))-30)
		// Distances from far below the e >= 2^-20 floor to beyond 9σ.
		d := sigma * math.Pow(2, src.Next()*14-10)
		level := thr + d
		if i%2 != 0 {
			level = thr - d
		}
		cut := ScreenCut(level, thr, sigma)
		if cut >= 1<<53-1 {
			continue
		}
		checked++
		for k := cut + 1; k <= cut+8 && k < 1<<53; k++ {
			r := math.Sqrt(-2 * math.Log(float64(k)/unit53))
			for _, u2 := range []float64{0, 0.25, 0.5, 0.75, src.Next()} {
				sin, cos := math.Sincos(2 * math.Pi * u2)
				for _, z := range []float64{r * cos, r * sin, r, -r} {
					noise := float64(z * sigma)
					if got, want := level+noise > thr, level > thr; got != want {
						t.Fatalf("level %g thr %g sigma %g: draw k=%d past cut %d flips the decision (noise %g)",
							level, thr, sigma, k, cut, noise)
					}
				}
			}
		}
	}
	if checked < 5000 {
		t.Errorf("only %d cases produced a usable cut", checked)
	}
}

// fuzzLevels decodes up to 64 levels from raw, 8 bytes each, in three
// modes: raw float64 bits, thr plus a multiple of sigma/4096 within
// ±8σ, and a float within 128 ulps of thr.
func fuzzLevels(raw []byte, thr, sigma float64) []float64 {
	var out []float64
	for len(raw) >= 8 && len(out) < 64 {
		v := binary.LittleEndian.Uint64(raw)
		raw = raw[8:]
		switch v % 3 {
		case 0:
			out = append(out, math.Float64frombits(v))
		case 1:
			out = append(out, thr+sigma*float64(int16(v>>16))/4096)
		default:
			out = append(out, math.Float64frombits(math.Float64bits(thr)+uint64(int64(int8(v>>8)))))
		}
	}
	return out
}

func FuzzThresholdWordMatchesFill(f *testing.F) {
	f.Add(uint64(1), []byte("\x01\x00\x00\x10\x00\x00\x00\x00\x04\x00\x00\xf0\xff\x00\x00\x00"), 0.5, 0.01, false)
	f.Add(uint64(7), []byte("\x02\x01\x00\x00\x00\x00\x00\x00\x05\xff\x00\x00\x00\x00\x00\x00\x08\x03"), 0.37, 1e-3, true)
	f.Add(uint64(42), make([]byte, 8*64), 1.0, 1.0, true)
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, thr, sigma float64, spare bool) {
		checkThresholdWord(t, seed, fuzzLevels(raw, thr, sigma), thr, sigma, spare, 8)
	})
}

// BenchmarkThresholdWord decides worst-case one/zero blocks at the
// four operating points of the BER waterfall (worst-case BER 1e-1 ..
// 1e-4, a midpoint threshold Q⁻¹(BER)·σ from each level), through the
// screened kernel and through the FillScaled-plus-compare baseline it
// replaces.
func BenchmarkThresholdWord(b *testing.B) {
	const thr, sigma = 1.0, 0.01
	for _, ber := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		levels := alternating(64, thr, sigma*math.Sqrt2*math.Erfcinv(2*ber))
		cuts := screenCuts(levels, thr, sigma)
		b.Run(fmt.Sprintf("ber=%.0e/screen", ber), func(b *testing.B) {
			g := NewGaussian(NewSplitMix64(1))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= g.ThresholdWord(levels, cuts, thr, sigma)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/slot")
			benchSink = sink
		})
		b.Run(fmt.Sprintf("ber=%.0e/fill", ber), func(b *testing.B) {
			g := NewGaussian(NewSplitMix64(1))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= fillDecisions(g, levels, thr, sigma)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/slot")
			benchSink = sink
		})
	}
}

// benchSink keeps benchmark results observable.
var benchSink uint64
