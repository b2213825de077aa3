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

// newScreens is NewScreen for every level.
func newScreens(levels []float64, thr, sigma float64) []Screen {
	screens := make([]Screen, len(levels))
	for t, l := range levels {
		screens[t] = NewScreen(l, thr, sigma)
	}
	return screens
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
	screens := newScreens(levels, thr, sigma)
	for b := 0; b < blocks; b++ {
		gw := got.ThresholdWord(levels, screens, thr, sigma)
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
		"65 levels":       func() { g.ThresholdWord(make([]float64, 65), make([]Screen, 65), 0, 1) },
		"missing screens": func() { g.ThresholdWord(make([]float64, 4), make([]Screen, 3), 0, 1) },
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
	screens := newScreens(levels, 1, 1)
	if n := testing.AllocsPerRun(100, func() { g.ThresholdWord(levels, screens, 1, 1) }); n != 0 {
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
		if got := screenCut(c.level, c.thr, c.sigma); got != noScreen {
			t.Errorf("screenCut(%g, %g, %g) = %d, want never", c.level, c.thr, c.sigma, got)
		}
	}
}

// TestScreenCutEngages: the margins cost the screen almost nothing —
// the cut sits at exp(−R²/2) to a relative 1e-6 — and a radius beyond
// what any 53-bit draw can produce screens every draw.
func TestScreenCutEngages(t *testing.T) {
	for _, r := range []float64{0.1, 1, 1.2816, 2.3263, 3.719} {
		cut := screenCut(1+r*0.01, 1, 0.01)
		want := math.Exp(-r*r/2) * unit53
		if rel := math.Abs(float64(cut)-want) / want; rel > 1e-6 {
			t.Errorf("R=%g: cut %d, want about %.0f (rel %g)", r, cut, want, rel)
		}
	}
	if cut := screenCut(10, 0, 1); cut != 0 {
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
		cut := screenCut(level, thr, sigma)
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

// exactPair is FillScaled's Box–Muller arithmetic on the u1 integer k
// and the u2 integer j: the radius and the two trig factors as
// computed.
func exactPair(k, j uint64) (r, cos, sin float64) {
	r = math.Sqrt(-2 * math.Log(float64(k)/unit53))
	sin, cos = math.Sincos(2 * math.Pi * (float64(j) / unit53))
	return r, cos, sin
}

// inBracket reports whether the computed square of x lies inside b,
// with the sign b claims when it claims one.
func inBracket(x float64, b bracket) bool {
	return math.Abs(b.lo) <= x*x && x*x <= b.hi && (b.lo == 0 || math.Signbit(b.lo) == math.Signbit(x))
}

// TestScreenBracketTablesCover checks the tables behind the bracket
// against the arithmetic they bound: Sincos(2π·u2) at both edges of
// every angle interval ±4 ulps and at random interior points, and
// Sqrt(−2·Log(k/2⁵³))² at every (bit length, mantissa interval) edge
// of the u1 integer k ±4, must lie inside their brackets with the
// signs the table claims.
func TestScreenBracketTablesCover(t *testing.T) {
	src := NewSplitMix64(77)
	for iv := uint64(0); iv < 1024; iv++ {
		var js []uint64
		for d := uint64(0); d <= 8; d++ {
			js = append(js, (iv<<43+d-4)&(1<<53-1), ((iv+1)<<43+d-4)&(1<<53-1))
		}
		for n := 0; n < 8; n++ {
			js = append(js, iv<<43|src.NextUint64()>>21)
		}
		for _, j := range js {
			_, cos, sin := exactPair(1, j)
			c, s := trigBracket[j>>43], trigBracket[(j>>43+768)&1023]
			if !inBracket(cos, c) || !inBracket(sin, s) {
				t.Fatalf("u2 integer %#x: cos %g (bracket %v), sin %g (bracket %v)", j, cos, c, sin, s)
			}
		}
	}
	for b := uint(1); b <= 53; b++ {
		for i := uint64(0); i < 256; i++ {
			edge := (256 + i) << 45 >> (54 - b) // the first k of interval i at bit length b
			for d := uint64(0); d <= 8; d++ {
				k := edge + d - 4
				if k == 0 || k >= 1<<53 {
					continue
				}
				r, _, _ := exactPair(k, 0)
				if lo, hi := rsqBracket(k); !(lo <= r*r && r*r <= hi) {
					t.Fatalf("u1 integer %d (bit length %d, interval %d): r² = %g outside [%g, %g]", k, b, i, r*r, lo, hi)
				}
			}
		}
	}
}

// checkSettle replays the bracket on one draw (k, j) for both slots of
// the pair: whenever a slot's bracket settles, its bit must equal the
// decision FillScaled's arithmetic makes. It returns the number of
// settled slots.
func checkSettle(t *testing.T, level, thr, sigma float64, k, j uint64) int {
	t.Helper()
	s := NewScreen(level, thr, sigma)
	r, cos, sin := exactPair(k, j)
	rlo, rhi := rsqBracket(k)
	settled := 0
	for _, slot := range []struct {
		z float64
		b *bracket
	}{{r * cos, &trigBracket[j>>43]}, {r * sin, &trigBracket[(j>>43+768)&1023]}} {
		bit, ok := s.settle(rlo, rhi, slot.b)
		if ok == 0 {
			continue
		}
		settled++
		if want := decide(level, slot.z, thr, sigma); bit != want {
			t.Fatalf("level %v thr %v sigma %v, k=%d j=%#x: bracket decides %d, arithmetic %d (z %g, r² in [%g, %g], trig² %v)",
				level, thr, sigma, k, j, bit, want, slot.z, rlo, rhi, *slot.b)
		}
	}
	return settled
}

// TestScreenBracketSound replays the bracket, in the manner of
// TestScreenCutSound: for levels, thresholds and sigmas across 40
// decades, with the distance between 0.25σ and 16σ, draws at random,
// at the edges of the r² intervals and just under the radius cut must
// settle only to the decision the exact arithmetic makes.
func TestScreenBracketSound(t *testing.T) {
	src := NewSplitMix64(2026)
	draws, settled := 0, 0
	for i := 0; i < 20000; i++ {
		thr := (src.Next() - 0.5) * math.Pow(10, float64(int(src.Next()*40))-20)
		sigma := math.Pow(10, float64(int(src.Next()*40))-30)
		d := sigma * math.Pow(2, src.Next()*6-2)
		level := thr + d
		if i%2 != 0 {
			level = thr - d
		}
		var ks []uint64
		for n := 0; n < 24; n++ {
			ks = append(ks, src.NextUint64()>>11|1)
		}
		for n := 0; n < 12; n++ {
			ks = append(ks, max((256+src.NextUint64()%256)<<45>>(1+src.NextUint64()%53), 1))
		}
		if cut := screenCut(level, thr, sigma); cut != noScreen {
			for k := cut; k > 0 && k+12 > cut; k-- {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			for n := 0; n < 2; n++ {
				settled += checkSettle(t, level, thr, sigma, k, src.NextUint64()>>11)
				draws++
			}
		}
	}
	if settled < draws {
		t.Errorf("only %d settled slots in %d draws", settled, draws)
	}
	t.Logf("%d draws, %d settled slots", draws, settled)
}

// TestScreenBracketEngages: at the four operating points of the BER
// waterfall, the pairs the radius screen misses are almost all settled
// by the bracket — the exact arithmetic takes under 1% of pairs.
func TestScreenBracketEngages(t *testing.T) {
	const thr, sigma, pairs = 1.0, 0.01, 200_000
	for _, ber := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		d := sigma * math.Sqrt2 * math.Erfcinv(2*ber)
		one, zero := NewScreen(thr+d, thr, sigma), NewScreen(thr-d, thr, sigma)
		src := NewSplitMix64(1)
		screened, exact := 0, 0
		for p := 0; p < pairs; p++ {
			k := src.NextUint64()>>11 | 1
			j := src.NextUint64() >> 11
			if k > one.cut && k > zero.cut {
				screened++
				continue
			}
			rlo, rhi := rsqBracket(k)
			_, ok0 := one.settle(rlo, rhi, &trigBracket[j>>43])
			_, ok1 := zero.settle(rlo, rhi, &trigBracket[(j>>43+768)&1023])
			if ok0&ok1 == 0 {
				exact++
			}
		}
		t.Logf("BER %.0e: %.2f%% screened, %.2f%% bracketed, %.3f%% exact", ber,
			100*float64(screened)/pairs, 100*float64(pairs-screened-exact)/pairs, 100*float64(exact)/pairs)
		if exact*100 >= pairs {
			t.Errorf("BER %.0e: the exact arithmetic takes %d of %d pairs", ber, exact, pairs)
		}
	}
}

// FuzzScreenBracketSound checks the bracket on raw draws and slots:
// whenever it settles a slot of the pair (k, j), the bit must equal
// the exact arithmetic's decision.
func FuzzScreenBracketSound(f *testing.F) {
	for _, ber := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		d := 0.01 * math.Sqrt2 * math.Erfcinv(2*ber)
		f.Add(uint64(0x9E3779B97F4A7C15), uint64(0x2545F4914F6CDD1D), 1+d, 1.0, 0.01)
		f.Add(uint64(0x0123456789ABCDEF), uint64(0xFEDCBA9876543210), 1-d, 1.0, 0.01)
	}
	f.Add(uint64(1<<20), uint64(1<<62), math.Nextafter(0.37, 1), 0.37, 1e-17)
	f.Add(uint64(1<<40), uint64(3<<61), math.Nextafter(0.37, 0), 0.37, 1e-17)
	f.Add(uint64(1<<11), uint64(1<<61), 1e-310, 5e-310, 5e-324)
	f.Fuzz(func(t *testing.T, k, j uint64, level, thr, sigma float64) {
		checkSettle(t, level, thr, sigma, max(k>>11, 1), j>>11)
	})
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
		screens := newScreens(levels, thr, sigma)
		b.Run(fmt.Sprintf("ber=%.0e/screen", ber), func(b *testing.B) {
			g := NewGaussian(NewSplitMix64(1))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= g.ThresholdWord(levels, screens, thr, sigma)
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
