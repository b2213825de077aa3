package stochastic

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numeric"
)

func TestPaperF1Coefficients(t *testing.T) {
	p := PaperF1()
	want := []float64{2.0 / 8, 5.0 / 8, 3.0 / 8, 6.0 / 8}
	if p.Degree() != 3 {
		t.Fatalf("degree = %d", p.Degree())
	}
	for i, w := range want {
		if math.Abs(p.Coef[i]-w) > 1e-12 {
			t.Errorf("coef[%d] = %g, want %g", i, p.Coef[i], w)
		}
	}
	if !p.Representable() {
		t.Error("paper polynomial not representable")
	}
	// f1(0.5) = 0.5 exactly.
	if got := p.Eval(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("f1(0.5) = %g", got)
	}
}

func TestReSCFig1WorkedExample(t *testing.T) {
	// The paper's Fig. 1(b): 8-bit streams for x = 4/8 and the
	// Bernstein coefficients (2/8, 5/8, 3/8, 6/8). The printed output
	// stream is y = 0,1,0,0,1,1,0,1 (4/8), matching f1(0.5) = 0.5.
	x1 := FromBits([]int{0, 0, 0, 1, 1, 0, 1, 1})
	x2 := FromBits([]int{0, 1, 1, 1, 0, 0, 1, 0})
	x3 := FromBits([]int{1, 1, 0, 1, 1, 0, 0, 0})
	z0 := FromBits([]int{0, 0, 0, 1, 0, 1, 0, 0})
	z1 := FromBits([]int{0, 1, 0, 1, 0, 1, 1, 1})
	z2 := FromBits([]int{0, 1, 1, 0, 1, 0, 0, 0})
	z3 := FromBits([]int{1, 1, 1, 0, 1, 1, 0, 1})

	out, sel, err := EvaluateStreams([]*Bitstream{x1, x2, x3}, []*Bitstream{z0, z1, z2, z3})
	if err != nil {
		t.Fatal(err)
	}
	wantSel := []int{1, 2, 1, 3, 2, 0, 2, 1}
	for i, w := range wantSel {
		if sel[i] != w {
			t.Errorf("select[%d] = %d, want %d", i, sel[i], w)
		}
	}
	wantOut := []int{0, 1, 0, 0, 1, 1, 0, 1}
	for i, w := range wantOut {
		if out.Get(i) != w {
			t.Errorf("y[%d] = %d, want %d", i, out.Get(i), w)
		}
	}
	if got := out.Value(); got != 0.5 {
		t.Errorf("de-randomized output = %g, want 4/8", got)
	}
}

func TestEvaluateStreamsErrors(t *testing.T) {
	s8 := NewBitstream(8)
	s9 := NewBitstream(9)
	if _, _, err := EvaluateStreams(nil, []*Bitstream{s8}); err == nil {
		t.Error("no data streams accepted")
	}
	if _, _, err := EvaluateStreams([]*Bitstream{s8}, []*Bitstream{s8}); err == nil {
		t.Error("wrong coefficient count accepted")
	}
	if _, _, err := EvaluateStreams([]*Bitstream{s8, s9}, []*Bitstream{s8, s8, s8}); err == nil {
		t.Error("ragged data accepted")
	}
	if _, _, err := EvaluateStreams([]*Bitstream{s8}, []*Bitstream{s8, s9}); err == nil {
		t.Error("ragged coefficients accepted")
	}
}

func TestNewReSCValidation(t *testing.T) {
	poly := PaperF1()
	if _, err := NewReSC(BernsteinPoly{}, nil, nil); err == nil {
		t.Error("empty polynomial accepted")
	}
	bad := NewBernstein([]float64{0.5, 1.5})
	if _, err := NewReSC(bad, make([]*SplitMix64, 1), make([]*SplitMix64, 2)); err == nil {
		t.Error("unrepresentable polynomial accepted")
	}
	nan := NewBernstein([]float64{0.5, math.NaN()})
	if nan.Representable() {
		t.Error("NaN coefficient reported representable")
	}
	if _, err := NewReSC(nan, make([]*SplitMix64, 1), make([]*SplitMix64, 2)); err == nil {
		t.Error("NaN coefficient accepted")
	}
	if _, err := NewReSC(poly, make([]*SplitMix64, 2), make([]*SplitMix64, 4)); err == nil {
		t.Error("wrong data source count accepted")
	}
	if _, err := NewReSC(poly, make([]*SplitMix64, 3), make([]*SplitMix64, 3)); err == nil {
		t.Error("wrong coef source count accepted")
	}
}

func TestReSCConvergesToBernstein(t *testing.T) {
	poly := PaperF1()
	r, err := NewReSCWithSeeds(poly, 2024)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, _ := r.Evaluate(x, 1<<16)
		want := poly.Eval(x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("x=%g: ReSC %g vs analytic %g", x, got, want)
		}
	}
}

func TestReSCSelectDistribution(t *testing.T) {
	// P(sel = i) should follow the Bernstein basis B_{i,n}(x).
	poly := PaperF1()
	r, _ := NewReSCWithSeeds(poly, 5)
	x := 0.3
	counts := make([]int, poly.Degree()+1)
	n := 1 << 16
	for i := 0; i < n; i++ {
		_, sel := r.Step(x)
		counts[sel]++
	}
	for i := range counts {
		got := float64(counts[i]) / float64(n)
		want := numeric.BernsteinBasis(i, poly.Degree(), x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(sel=%d) = %g, want %g", i, got, want)
		}
	}
}

func TestReSCPropertyOutputIsProbability(t *testing.T) {
	f := func(seed uint64, xRaw float64) bool {
		x := math.Mod(math.Abs(xRaw), 1)
		poly := PaperF1()
		r, err := NewReSCWithSeeds(poly, seed)
		if err != nil {
			return false
		}
		v, stream := r.Evaluate(x, 512)
		return v >= 0 && v <= 1 && stream.Len() == 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReSCSweep(t *testing.T) {
	poly := PaperF1()
	r, _ := NewReSCWithSeeds(poly, 77)
	xs := numeric.Linspace(0, 1, 11)
	got := make([]float64, len(xs))
	want := make([]float64, len(xs))
	for i, x := range xs {
		got[i], _ = r.EvaluateWords(x, 4096)
		want[i] = poly.Eval(x)
	}
	if mae := numeric.MeanAbsError(got, want); mae > 0.02 {
		t.Errorf("sweep MAE = %g", mae)
	}
}

func TestGammaCorrectionPoly(t *testing.T) {
	poly, maxErr, err := GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	if poly.Degree() != 6 {
		t.Errorf("degree = %d", poly.Degree())
	}
	if !poly.Representable() {
		t.Error("gamma polynomial not representable")
	}
	if maxErr > 0.1 {
		t.Errorf("gamma maxErr = %g", maxErr)
	}
	for _, gamma := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if _, _, err := GammaCorrection(gamma, 6); err == nil {
			t.Errorf("gamma %g accepted", gamma)
		}
	}
}

func TestFromPowerMatchesDirectEval(t *testing.T) {
	// Check FromPower against Horner evaluation of the power form.
	p := []float64{0.1, 0.4, -0.2, 0.05}
	bp := FromPower(p)
	for _, x := range numeric.Linspace(0, 1, 13) {
		h := 0.0
		for k := len(p) - 1; k >= 0; k-- {
			h = h*x + p[k]
		}
		if math.Abs(bp.Eval(x)-h) > 1e-12 {
			t.Errorf("x=%g: %g vs %g", x, bp.Eval(x), h)
		}
	}
}

func TestBernsteinString(t *testing.T) {
	s := PaperF1().String()
	if len(s) == 0 || s[:9] != "Bernstein" {
		t.Errorf("String = %q", s)
	}
}

func TestReSCAccuracyImprovesWithLength(t *testing.T) {
	// Longer streams give lower RMS error — the throughput/accuracy
	// trade-off the paper exploits (§V.B).
	poly := PaperF1()
	rms := func(length int) float64 {
		s := 0.0
		trials := 60
		for tr := 0; tr < trials; tr++ {
			r, _ := NewReSCWithSeeds(poly, uint64(300+tr))
			got, _ := r.Evaluate(0.5, length)
			d := got - poly.Eval(0.5)
			s += d * d
		}
		return math.Sqrt(s / float64(trials))
	}
	short := rms(64)
	long := rms(4096)
	if long >= short {
		t.Errorf("RMS did not improve with length: %g -> %g", short, long)
	}
}

// EvaluateStreams runs the combinational ReSC datapath on externally
// supplied bit-streams (the form used by the paper's Fig. 1(b)
// worked example): data[i] are the n streams of x, coef[i] the n+1
// coefficient streams. It returns the output stream and the per-slot
// adder values. It reproduces the worked example that the generated
// datapaths (ReSC, EvaluateWords, ReSCOnesSplitMix) are checked
// against.
func EvaluateStreams(data []*Bitstream, coef []*Bitstream) (*Bitstream, []int, error) {
	n := len(data)
	if len(coef) != n+1 {
		return nil, nil, fmt.Errorf("stochastic: %d data streams need %d coefficient streams, got %d", n, n+1, len(coef))
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("stochastic: no data streams")
	}
	length := data[0].Len()
	for _, d := range data[1:] {
		if d.Len() != length {
			return nil, nil, fmt.Errorf("stochastic: data stream length mismatch")
		}
	}
	for _, c := range coef {
		if c.Len() != length {
			return nil, nil, fmt.Errorf("stochastic: coefficient stream length mismatch")
		}
	}
	sel := make([]int, length)
	for t := 0; t < length; t++ {
		s := 0
		for _, d := range data {
			s += d.Get(t)
		}
		sel[t] = s
	}
	out := MuxN(sel, coef...)
	return out, sel, nil
}

// MuxN selects per-slot among len(inputs) streams according to the
// integer select values sel[i] ∈ [0, len(inputs)): the wide
// multiplexer of the ReSC architecture (paper Fig. 1a), bit by bit.
// Out-of-range selects panic: they indicate a broken adder.
func MuxN(sel []int, inputs ...*Bitstream) *Bitstream {
	if len(inputs) == 0 {
		panic("stochastic: MuxN needs at least one input")
	}
	n := inputs[0].n
	for _, in := range inputs[1:] {
		inputs[0].sameLen(in)
	}
	if len(sel) != n {
		panic(fmt.Sprintf("stochastic: select length %d vs stream length %d", len(sel), n))
	}
	out := NewBitstream(n)
	for i, s := range sel {
		if s < 0 || s >= len(inputs) {
			panic(fmt.Sprintf("stochastic: select %d out of range [0,%d)", s, len(inputs)))
		}
		out.Set(i, inputs[s].Get(i))
	}
	return out
}
