package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/stochastic"
)

// gammaUnit builds a degree-6 optical unit (the §V.C application
// order) for the packed-path tests.
func gammaUnit(t *testing.T, seed uint64) *Unit {
	t.Helper()
	return designUnit(t, 6, 0.3, seed)
}

// designUnit builds an MRR-first unit of the given order and channel
// spacing running that order's gamma-correction polynomial.
func designUnit(t *testing.T, order int, spacingNM float64, seed uint64) *Unit {
	t.Helper()
	poly, _, err := stochastic.GammaCorrection(0.45, order)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MRRFirst(MRRFirstSpec{Order: order, WLSpacingNM: spacingNM})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(c, poly, seed)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestUnitEvaluateWordsMatchesEvaluate is the optical-side tentpole
// equivalence: the word-parallel datapath must emit the same
// bitstream as the bit-serial Step loop, for the order-2 paper design
// and the order-6 gamma design, across seeds and awkward lengths.
func TestUnitEvaluateWordsMatchesEvaluate(t *testing.T) {
	builders := map[string]func(*testing.T, uint64) *Unit{
		"paper-order2": paperUnit,
		"gamma-order6": gammaUnit,
	}
	for name, build := range builders {
		for _, seed := range []uint64{3, 1234} {
			serial := build(t, seed)
			packed := build(t, seed)
			for _, length := range []int{1, 63, 64, 65, 500} {
				for _, x := range []float64{0, 0.3, 0.8, 1} {
					vs, bs := serial.Evaluate(x, length)
					vp, bp := packed.EvaluateWords(x, length)
					if vs != vp {
						t.Fatalf("%s seed %d len %d x=%g: value %g vs %g", name, seed, length, x, vs, vp)
					}
					for i := 0; i < bs.Len(); i++ {
						if bs.Get(i) != bp.Get(i) {
							t.Fatalf("%s seed %d len %d x=%g: bit %d %d vs %d",
								name, seed, length, x, i, bs.Get(i), bp.Get(i))
						}
					}
				}
			}
		}
	}
}

func TestUnitEvaluateBatchMatchesSeededOracle(t *testing.T) {
	u := paperUnit(t, 21)
	oracle := paperUnit(t, 21)
	xs := []float64{0, 0.2, 0.5, 0.9, 1}
	const length = 300
	got, err := u.EvaluateBatch(context.Background(), engine.WordParallel, xs, length)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("batch length %d", len(got))
	}
	for i, x := range xs {
		want := oracle.evalSeeded(stochastic.DeriveSeed(oracle.seed, i), x, length)
		if got[i] != want {
			t.Errorf("x[%d]=%g: batch %g vs seeded oracle %g", i, x, got[i], want)
		}
	}
	again, err := paperUnit(t, 21).EvaluateBatch(context.Background(), engine.Serial, xs, length)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Errorf("batch not reproducible at %d: %g vs %g", i, got[i], again[i])
		}
	}
}

// TestUnitEvaluateBatchMatchesEvalPacked pins every batch value to
// the packed datapath run on that input's seeded generators. The paper
// design and the order-6 gamma design are in mux form, so their batch
// takes stochastic.ReSCOnesSplitMix; order 2 at 0.1 nm is not and
// stays on evalPacked.
func TestUnitEvaluateBatchMatchesEvalPacked(t *testing.T) {
	cases := []struct {
		name string
		u    *Unit
		mux  bool
	}{
		{"paper-order2", paperUnit(t, 21), true},
		{"gamma-order6", gammaUnit(t, 22), true},
		{"order2-0.1nm", designUnit(t, 2, 0.1, 23), false},
	}
	xs := append(numeric.Linspace(0, 1, 9), 1e-3, 0.999)
	for _, c := range cases {
		dec := c.u.decisionTable()
		if c.u.mux != c.mux {
			t.Errorf("%s: mux form %v, want %v", c.name, c.u.mux, c.mux)
		}
		for _, length := range []int{1, 65, 1000} {
			got, err := c.u.EvaluateBatch(context.Background(), engine.WordParallel, xs, length)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				data, coef := seededSNGs(c.u.Circuit.P.Order, stochastic.DeriveSeed(c.u.seed, i))
				if want := c.u.evalPacked(dec, data, coef, x, length).Value(); got[i] != want {
					t.Errorf("%s len %d x=%g: batch %g vs evalPacked %g", c.name, length, x, got[i], want)
				}
			}
		}
	}
}

// TestDecisionTableMuxForm: one flipped cell takes a table out of mux
// form, and so does a miscalibrated threshold, which the batch then
// evaluates through evalPacked on its own table.
func TestDecisionTableMuxForm(t *testing.T) {
	dec := gammaUnit(t, 5).decisionTable()
	if !isMuxTable(dec) {
		t.Fatal("order-6 gamma table not in mux form")
	}
	flipped := make([][]uint64, len(dec))
	for w, row := range dec {
		flipped[w] = append([]uint64(nil), row...)
	}
	flipped[1][0] ^= 1 << 0b010
	if isMuxTable(flipped) {
		t.Error("table with cell (w=1, z=0b010) flipped still in mux form")
	}

	// A threshold just above the lowest '1' level reads that level's
	// cells as 0. The paper polynomial's coefficients are all interior,
	// so every cell is reachable.
	u := paperUnit(t, 5)
	n := u.Circuit.P.Order
	_, _, minOne, _ := u.Circuit.PowerBands()
	u.thresholdMW = math.Nextafter(minOne, math.Inf(1))
	mis := u.decisionTable()
	if u.mux {
		t.Fatal("miscalibrated table still in mux form")
	}
	xs := numeric.Linspace(0, 1, 9)
	const length = 1000
	got, err := u.EvaluateBatch(context.Background(), engine.Serial, xs, length)
	if err != nil {
		t.Fatal(err)
	}
	reached := false
	for i, x := range xs {
		seed := stochastic.DeriveSeed(u.seed, i)
		data, coef := seededSNGs(n, seed)
		if want := u.evalPacked(mis, data, coef, x, length).Value(); got[i] != want {
			t.Errorf("x=%g: batch %g vs evalPacked %g on the miscalibrated table", x, got[i], want)
		}
		dataSeeds, coefSeeds := unitSeeds(n, seed)
		reached = reached || got[i] != float64(stochastic.ReSCOnesSplitMix(u.Poly.Coef, x, dataSeeds, coefSeeds, length))/length
	}
	if !reached {
		t.Error("no input reached a miscalibrated cell: the check cannot tell the two paths apart")
	}
}

// TestUnitEvalSeededFallbackMatchesPacked pins the cache-free serial
// fallback (used beyond maxTableOrder) to the packed path on a
// tabulatable order, so the two implementations cannot drift.
func TestUnitEvalSeededFallbackMatchesPacked(t *testing.T) {
	u := paperUnit(t, 17)
	dec := u.decisionTable()
	if dec == nil {
		t.Fatal("order 2 should tabulate")
	}
	for i, x := range []float64{0, 0.4, 1} {
		seed := stochastic.DeriveSeed(99, i)
		data, coef := seededSNGs(u.Circuit.P.Order, seed)
		packed := u.evalPacked(dec, data, coef, x, 257).Value()

		// Re-run through the serial fallback by hiding the table.
		fresh := paperUnit(t, 17)
		fresh.decOnce.Do(func() {}) // leave decisions nil
		serial := fresh.evalSeeded(seed, x, 257)
		if packed != serial {
			t.Errorf("x=%g: packed %g vs serial fallback %g", x, packed, serial)
		}
	}
}

// TestUnitEvaluateBatchAccuracy ties the batch to its exact binomial
// law: each L-cycle result is Binomial(L, E(x))/L, with E summed over
// the unit's own decision table (exactExpectation), so on a 17-point
// grid at L = 2¹⁵ every result must sit within 5σ of E.
func TestUnitEvaluateBatchAccuracy(t *testing.T) {
	u := paperUnit(t, 2024)
	xs := numeric.Linspace(0, 1, 17)
	const length = 1 << 15
	got, err := u.EvaluateBatch(context.Background(), engine.WordParallel, xs, length)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		e := exactExpectation(u, x)
		if z := binomialZ(got[i], e, length); math.Abs(z) > 5 {
			t.Errorf("x=%g: batch %g vs exact expectation %g: z = %.2f", x, got[i], e, z)
		}
	}
}

// TestUnitEvaluateBatchRace exercises concurrent EvaluateBatch calls
// on one shared unit (shared decision table, per-index sources);
// `go test -race` turns it into a data-race check.
func TestUnitEvaluateBatchRace(t *testing.T) {
	u := paperUnit(t, 8)
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(i) / 47
	}
	done := make(chan []float64, 4)
	for g := 0; g < 4; g++ {
		go func() {
			got, err := u.EvaluateBatch(context.Background(), engine.WordParallel, xs, 256)
			if err != nil {
				t.Error(err)
			}
			done <- got
		}()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		other := <-done
		for i := range first {
			if first[i] != other[i] {
				t.Fatalf("concurrent batches disagree at %d: %g vs %g", i, first[i], other[i])
			}
		}
	}
}

func BenchmarkUnitEvaluateSerial(b *testing.B) {
	c := MustCircuit(PaperParams())
	u, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Evaluate(0.5, 4096)
	}
}

func BenchmarkUnitEvaluateWords(b *testing.B) {
	c := MustCircuit(PaperParams())
	u, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	u.decisionTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.EvaluateWords(0.5, 4096)
	}
}

func BenchmarkUnitEvaluateBatch(b *testing.B) {
	c := MustCircuit(PaperParams())
	u, err := NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 3)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(i) / 255
	}
	u.decisionTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.EvaluateBatch(context.Background(), engine.WordParallel, xs, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
