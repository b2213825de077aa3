package stochastic

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
)

// repPoly returns an SC-representable test polynomial of the given
// degree with coefficients spread over (0, 1).
func repPoly(degree int) BernsteinPoly {
	coef := make([]float64, degree+1)
	for i := range coef {
		coef[i] = 0.1 + 0.8*float64(i)/float64(degree)
	}
	return NewBernstein(coef)
}

// TestGenerateWordsMatchesGenerate: the integer word kernel gives the
// float comparator's bits from equal sources, a NaN probability
// included.
func TestGenerateWordsMatchesGenerate(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1, math.NaN()} {
		for _, n := range []int{0, 1, 63, 64, 65, 300} {
			serial := NewSNG(NewSplitMix64(42)).Generate(p, n)
			packed := NewSNG(NewSplitMix64(42)).GenerateWords(p, n)
			if serial.Len() != packed.Len() {
				t.Fatalf("p=%g n=%d: length %d vs %d", p, n, serial.Len(), packed.Len())
			}
			for w := 0; w < serial.WordCount(); w++ {
				if serial.words[w] != packed.words[w] {
					t.Errorf("p=%g n=%d: word %d differs: %x vs %x",
						p, n, w, serial.words[w], packed.words[w])
				}
			}
		}
	}
}

func TestNextWordEdgeCases(t *testing.T) {
	g := NewSNG(NewSplitMix64(1))
	if got := g.NextWord(0.5, 0); got != 0 {
		t.Errorf("0-bit word = %x", got)
	}
	if got := g.NextWord(0, 64); got != 0 {
		t.Errorf("p=0 word = %x", got)
	}
	if got := g.NextWord(1, 64); got != ^uint64(0) {
		t.Errorf("p=1 word = %x", got)
	}
	if got := g.NextWord(1, 10); got != (1<<10)-1 {
		t.Errorf("p=1 10-bit word = %x", got)
	}
	// The degenerate probabilities must not consume samples, exactly
	// like NextBit.
	a, b := NewSNG(NewSplitMix64(7)), NewSNG(NewSplitMix64(7))
	a.NextWord(0, 64)
	a.NextWord(1, 64)
	if a.NextWord(0.5, 64) != b.NextWord(0.5, 64) {
		t.Error("degenerate NextWord consumed source samples")
	}
	defer func() {
		if recover() == nil {
			t.Error("NextWord(|65 bits|) did not panic")
		}
	}()
	g.NextWord(0.5, 65)
}

func TestAddPlaneCountsSlots(t *testing.T) {
	words := []uint64{0xF0F0, 0xFF00, 0xAAAA, 0x0001}
	var planes []uint64
	for _, w := range words {
		planes = AddPlane(planes, w)
	}
	for t64 := 0; t64 < 64; t64++ {
		want := 0
		for _, w := range words {
			want += int(w >> uint(t64) & 1)
		}
		got := 0
		for k, pl := range planes {
			got |= int(pl>>uint(t64)&1) << uint(k)
		}
		if got != want {
			t.Fatalf("slot %d: plane sum %d, want %d", t64, got, want)
		}
		for v := 0; v <= len(words); v++ {
			ind := PlaneEquals(planes, v) >> uint(t64) & 1
			if (ind == 1) != (v == want) {
				t.Fatalf("slot %d: PlaneEquals(%d) = %d with sum %d", t64, v, ind, want)
			}
		}
	}
}

// TestEvaluateWordsMatchesEvaluate is the tentpole equivalence
// guarantee: for degrees 2-6 across seeds and awkward lengths, the
// word-parallel evaluator emits a bitstream identical to the
// bit-serial oracle.
func TestEvaluateWordsMatchesEvaluate(t *testing.T) {
	for degree := 2; degree <= 6; degree++ {
		poly := repPoly(degree)
		for _, seed := range []uint64{1, 99, 0xDEADBEEF} {
			for _, length := range []int{1, 63, 64, 65, 1000} {
				for _, x := range []float64{0, 0.3, 0.75, 1, math.NaN()} {
					serial, err := NewReSCWithSeeds(poly, seed)
					if err != nil {
						t.Fatal(err)
					}
					packed, err := NewReSCWithSeeds(poly, seed)
					if err != nil {
						t.Fatal(err)
					}
					vs, bs := serial.Evaluate(x, length)
					vp, bp := packed.EvaluateWords(x, length)
					if vs != vp {
						t.Fatalf("deg %d seed %d len %d x=%g: value %g vs %g",
							degree, seed, length, x, vs, vp)
					}
					for w := 0; w < bs.WordCount(); w++ {
						if bs.words[w] != bp.words[w] {
							t.Fatalf("deg %d seed %d len %d x=%g: word %d %x vs %x",
								degree, seed, length, x, w, bs.words[w], bp.words[w])
						}
					}
				}
			}
		}
	}
}

// TestEvaluateWordsContinues checks the packed evaluator advances the
// sources the same way the serial path does across successive calls.
func TestEvaluateWordsContinues(t *testing.T) {
	poly := repPoly(3)
	serial, _ := NewReSCWithSeeds(poly, 5)
	packed, _ := NewReSCWithSeeds(poly, 5)
	for call := 0; call < 3; call++ {
		_, bs := serial.Evaluate(0.4, 100)
		_, bp := packed.EvaluateWords(0.4, 100)
		for w := 0; w < bs.WordCount(); w++ {
			if bs.words[w] != bp.words[w] {
				t.Fatalf("call %d: word %d differs", call, w)
			}
		}
	}
}

// edgePoly returns a degree-n test polynomial whose coefficients mix
// the degenerate 0 and 1 with interior probabilities near both ends;
// the offset by degree moves each kind across coefficient slots.
func edgePoly(degree int) BernsteinPoly {
	vals := []float64{0, 0.3, 1, 1e-3, 0.999, 0.5, 0.71}
	coef := make([]float64, degree+1)
	for i := range coef {
		coef[i] = vals[(i+degree)%len(vals)]
	}
	return NewBernstein(coef)
}

// checkReSCOnes fails t unless ReSCOnesSplitMix counts exactly the
// ones of the stream EvaluateWords emits from the ReSC that
// NewReSCWithSeeds builds on the same seed.
func checkReSCOnes(t *testing.T, poly BernsteinPoly, x float64, length int, seed uint64) {
	t.Helper()
	r, err := NewReSCWithSeeds(poly, seed)
	if err != nil {
		t.Fatal(err)
	}
	_, bs := r.EvaluateWords(x, length)
	data, coef := rescSeeds(poly.Degree(), seed)
	if got, want := ReSCOnesSplitMix(poly.Coef, x, data, coef, length), bs.Ones(); got != want {
		t.Fatalf("coef %v x=%g len %d seed %#x: kernel %d ones, EvaluateWords %d",
			poly.Coef, x, length, seed, got, want)
	}
}

// TestReSCOnesSplitMixMatchesEvaluateWords pins the counter-indexed
// kernel behind EvaluateBatch to the word-parallel evaluator: the same
// ones count from the same seeds over degrees 1–8, lengths around the
// word boundary, inputs at and near both ends, coefficients including
// 0 and 1, and 20 seeds.
func TestReSCOnesSplitMixMatchesEvaluateWords(t *testing.T) {
	for degree := 1; degree <= 8; degree++ {
		for _, poly := range []BernsteinPoly{repPoly(degree), edgePoly(degree)} {
			for s := range 20 {
				seed := DeriveSeed(0xC0FFEE, s)
				for _, length := range []int{1, 63, 64, 65, 1000} {
					for _, x := range []float64{0, 1e-3, 0.3, 0.5, 0.999, 1} {
						checkReSCOnes(t, poly, x, length, seed)
					}
				}
			}
		}
	}
}

// FuzzReSCOnesSplitMixMatchesEvaluateWords runs the same comparison on
// inputs nobody listed: any seed and x (NaN and infinities included),
// degrees 0–12 with coefficients k/255 taken from the fuzzer's bytes,
// and lengths 1–4096.
func FuzzReSCOnesSplitMixMatchesEvaluateWords(f *testing.F) {
	f.Add(uint64(1), 0.3, []byte{0, 77, 255}, uint16(64))
	f.Add(uint64(0xDEADBEEF), 1e-3, []byte{255, 1, 128, 0, 254, 3, 200}, uint16(999))
	f.Add(uint64(7), 1.0, []byte{12}, uint16(0))
	f.Add(uint64(42), 0.999, []byte{0, 0, 0, 0, 0, 0, 0, 0, 255}, uint16(4094))
	f.Add(uint64(3), math.NaN(), []byte{9, 250, 128}, uint16(65))
	f.Fuzz(func(t *testing.T, seed uint64, x float64, raw []byte, length uint16) {
		if len(raw) == 0 || len(raw) > 13 {
			t.Skip("degree outside 0–12")
		}
		coef := make([]float64, len(raw))
		for i, b := range raw {
			coef[i] = float64(b) / 255
		}
		checkReSCOnes(t, NewBernstein(coef), x, int(length)%4096+1, seed)
	})
}

func TestEvaluateBatchMatchesPerIndexOracle(t *testing.T) {
	poly := repPoly(4)
	xs := []float64{0, 0.1, 0.5, 0.9, 1, 0.33}
	const length, seed = 777, 31
	got, err := EvaluateBatch(context.Background(), engine.WordParallel, poly, xs, length, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		r, err := NewReSCWithSeeds(poly, DeriveSeed(seed, i))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := r.Evaluate(x, length)
		if got[i] != want {
			t.Errorf("x[%d]=%g: batch %g vs serial oracle %g", i, x, got[i], want)
		}
	}
	// Reproducible across calls (and therefore across pool sizes).
	again, err := EvaluateBatch(context.Background(), engine.WordParallel, poly, xs, length, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Errorf("batch not reproducible at %d: %g vs %g", i, got[i], again[i])
		}
	}
}

func TestEvaluateBatchErrors(t *testing.T) {
	if _, err := EvaluateBatch(context.Background(), engine.WordParallel, repPoly(2), []float64{0.5}, 0, 1); err == nil {
		t.Error("zero stream length accepted")
	}
	if _, err := EvaluateBatch(context.Background(), engine.WordParallel, repPoly(2), []float64{0.5}, -4, 1); err == nil {
		t.Error("negative stream length accepted")
	}
	bad := NewBernstein([]float64{0.5, 1.5})
	if _, err := EvaluateBatch(context.Background(), engine.WordParallel, bad, []float64{0.5}, 64, 1); err == nil {
		t.Error("unrepresentable polynomial accepted")
	}
	if out, err := EvaluateBatch(context.Background(), engine.WordParallel, repPoly(2), nil, 64, 1); err != nil || len(out) != 0 {
		t.Errorf("empty input: %v, %v", out, err)
	}
	if _, err := EvaluateBatch(context.Background(), nil, repPoly(2), []float64{0.5}, 64, 1); err == nil {
		t.Error("nil engine accepted")
	}
}

// TestEvaluateBatchConverges ties the batch to its exact binomial law:
// with i.i.d. source bits every ReSC output cycle is Bernoulli(B(x)),
// so each L-cycle result must sit within 5σ = 5·√(B(1−B)/L) of B(x).
func TestEvaluateBatchConverges(t *testing.T) {
	poly := repPoly(5)
	xs := make([]float64, 17)
	for i := range xs {
		xs[i] = float64(i) / 16
	}
	const length = 1 << 15
	got, err := EvaluateBatch(context.Background(), engine.WordParallel, poly, xs, length, 2024)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := poly.Eval(x)
		if d, bound := math.Abs(got[i]-want), 5*math.Sqrt(want*(1-want)/length); d > bound {
			t.Errorf("x=%g: batch %g vs B(x) %g: |d| %.3g > 5σ %.3g", x, got[i], want, d, bound)
		}
	}
}

// TestEvaluateBatchRace exercises concurrent batch calls over the
// worker pool; `go test -race` makes this a data-race check.
func TestEvaluateBatchRace(t *testing.T) {
	poly := repPoly(3)
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i) / 63
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			_, err := EvaluateBatch(context.Background(), engine.WordParallel, poly, xs, 256, 5)
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkReSCEvaluateSerial(b *testing.B) {
	poly := repPoly(6)
	r, err := NewReSCWithSeeds(poly, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096 / 8)
	for i := 0; i < b.N; i++ {
		r.Evaluate(0.5, 4096)
	}
}

func BenchmarkReSCEvaluateWords(b *testing.B) {
	poly := repPoly(6)
	r, err := NewReSCWithSeeds(poly, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096 / 8)
	for i := 0; i < b.N; i++ {
		r.EvaluateWords(0.5, 4096)
	}
}

func BenchmarkEvaluateBatch(b *testing.B) {
	poly := repPoly(6)
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(i) / 255
	}
	b.SetBytes(int64(len(xs)) * 4096 / 8)
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateBatch(context.Background(), engine.WordParallel, poly, xs, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// GenerateWords is Generate assembled word-at-a-time through NextWord:
// bit-identical output for equal sources, without per-bit Set calls.
func (g *SNG) GenerateWords(p float64, n int) *Bitstream {
	b := NewBitstream(n)
	for w := 0; w < b.WordCount(); w++ {
		b.SetWord(w, bernoulliWord(g.src, p, b.WordBits(w)))
	}
	return b
}
