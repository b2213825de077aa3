package netlist

import (
	"math"
	"strings"
	"testing"
)

func TestParseDefaults(t *testing.T) {
	d, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultDeck()
	if d.Order != want.Order || d.SpacingNM != want.SpacingNM ||
		d.Rings != want.Rings || d.Method != want.Method ||
		d.Bits != want.Bits || d.Noise != want.Noise || d.Poly != nil {
		t.Errorf("defaults altered: %+v", d)
	}
}

func TestParseFullDeck(t *testing.T) {
	deck := `
# a full experiment
order 3
spacing 0.5        # nm
rings dense
method mrr-first
mzi il=5.0
ber 1e-4
poly 0.25 0.625 0.375 0.75
input 0.5
bits 8192
seed 42
noise off
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if d.Order != 3 || d.SpacingNM != 0.5 || d.Rings != "dense" {
		t.Errorf("circuit fields: %+v", d)
	}
	if d.MZIILdB != 5.0 || d.TargetBER != 1e-4 {
		t.Errorf("device fields: %+v", d)
	}
	if len(d.Poly) != 4 || d.Poly[1] != 0.625 {
		t.Errorf("poly: %v", d.Poly)
	}
	if d.Bits != 8192 || d.Seed != 42 || d.Noise {
		t.Errorf("sim fields: %+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"frobnicate 1",    // unknown directive
		"order x",         // bad int
		"order 0",         // invalid after validate
		"spacing -1",      // invalid
		"rings hexagonal", // unknown preset
		"method quantum",  // unknown method
		"mzi il",          // not key=value
		"mzi q=3",         // unknown key
		"poly",            // empty
		"poly 0.5 0.5",    // wrong arity for default order 2? (3 needed)
		"fit sigma 2",     // not gamma
		"noise maybe",     // bad flag
		"input 1.5",       // out of range
		"bits 0",          // invalid
		"ber 0.7",         // invalid
		"seed -1",         // bad uint
		// Non-finite numbers and an unbounded stream length.
		"spacing NaN",
		"ber NaN",
		"mzi il=NaN",
		"method mzi-first\npump NaN",
		"poly NaN 0.5 0.5",
		"probe Inf",
		"fit gamma -Inf",
		"input NaN",
		"bits 4611686018427387904",
		"noise off\nbits 4611686018427387904",
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("deck %q accepted", src)
		}
	}
}

// defaultDeckText spells out every DefaultDeck field as a deck.
const defaultDeckText = `order 2
spacing 1.0
rings fig5
method mrr-first
mzi il=4.5 er=7.5
pump 600
ber 1e-6
input 0.5
bits 4096
seed 1
noise on
`

// FuzzParse: Parse never panics, and a deck it accepts has only finite
// numbers and a stream length in [1, MaxBits].
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		defaultDeckText,
		"order 3\npoly 0.25 0.625 0.375 0.75\nbits 8192\nnoise off\n",
		"fit gamma 0.45\n",
		"spacing NaN",
		"ber NaN",
		"mzi il=NaN",
		"method mzi-first\npump NaN",
		"poly NaN 0.5 0.5",
		"bits 4611686018427387904",
		"bits 268435456",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		nums := append([]float64{d.SpacingNM, d.MZIILdB, d.MZIERdB, d.PumpMW, d.ProbeMW,
			d.TargetBER, d.FitGamma, d.InputX}, d.Poly...)
		for i, v := range nums {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("deck %q accepted with number %d = %g", src, i, v)
			}
		}
		if d.Bits < 1 || d.Bits > MaxBits {
			t.Fatalf("deck %q accepted with bits %d", src, d.Bits)
		}
	})
}

func TestParsePolyArityChecked(t *testing.T) {
	ok := "order 2\npoly 0.1 0.2 0.3\n"
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Errorf("valid deck rejected: %v", err)
	}
	bad := "order 2\npoly 0.1 0.2\n"
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestElaborateMRRFirst(t *testing.T) {
	d, err := Parse(strings.NewReader("order 2\npoly 0.25 0.625 0.75\nprobe 1.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Elaborate(d)
	if err != nil {
		t.Fatal(err)
	}
	// §V.A anchors hold for the default deck.
	if math.Abs(e.Params.PumpPowerMW-591.8) > 0.5 {
		t.Errorf("pump %g", e.Params.PumpPowerMW)
	}
	if e.Params.ProbePowerMW != 1.0 {
		t.Errorf("probe override lost: %g", e.Params.ProbePowerMW)
	}
	got, _ := e.Unit.Evaluate(d.InputX, 1<<14)
	want := e.Poly.Eval(d.InputX)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("elaborated unit: %g vs %g", got, want)
	}
}

func TestElaborateMZIFirst(t *testing.T) {
	deck := "method mzi-first\nmzi il=6.5 er=7.5\npump 600\nrings dense\n"
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Elaborate(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Params.ProbePowerMW-0.26) > 0.005 {
		t.Errorf("anchor probe %g", e.Params.ProbePowerMW)
	}
}

func TestElaborateGammaFit(t *testing.T) {
	d, err := Parse(strings.NewReader("order 6\nspacing 0.3\nrings dense\nfit gamma 0.45\n"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Elaborate(d)
	if err != nil {
		t.Fatal(err)
	}
	if e.Poly.Degree() != 6 {
		t.Errorf("fit degree %d", e.Poly.Degree())
	}
	if !e.Poly.Representable() {
		t.Error("fit not representable")
	}
}

func TestElaborateDefaultPolynomial(t *testing.T) {
	d, _ := Parse(strings.NewReader("order 4\nspacing 0.5\nrings dense\n"))
	e, err := Elaborate(d)
	if err != nil {
		t.Fatal(err)
	}
	if e.Poly.Degree() != 4 {
		t.Errorf("default poly degree %d", e.Poly.Degree())
	}
	if !e.Poly.Representable() {
		t.Error("default poly not representable")
	}
}

func TestElaborateInfeasible(t *testing.T) {
	d, _ := Parse(strings.NewReader("spacing 0.02\n"))
	if _, err := Elaborate(d); err == nil {
		t.Error("collapsed comb elaborated")
	}
}
