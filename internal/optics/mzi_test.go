package optics

import (
	"math"
	"strings"
	"testing"
)

func TestMZIEq7b(t *testing.T) {
	// Paper §V.A: ILdB=4.5 => IL% ≈ 0.3548; ERdB=13.22 => ER% ≈ 0.0476.
	m := MZI{ILdB: 4.5, ERdB: 13.22}
	if got := m.Transmission(0); math.Abs(got-0.35481) > 2e-4 {
		t.Errorf("T(0) = %g, want ~0.35481", got)
	}
	want1 := 0.35481 * 0.04764
	if got := m.Transmission(1); math.Abs(got-want1) > 2e-4 {
		t.Errorf("T(1) = %g, want ~%g", got, want1)
	}
}

func TestMZIValidate(t *testing.T) {
	if err := (MZI{ILdB: 4.5, ERdB: 3}).Validate(); err != nil {
		t.Errorf("valid MZI rejected: %v", err)
	}
	if err := (MZI{ILdB: -1}).Validate(); err == nil {
		t.Error("negative IL accepted")
	}
	if err := (MZI{ILdB: 1, ERdB: -2}).Validate(); err == nil {
		t.Error("negative ER accepted")
	}
	for _, m := range []MZI{
		{ILdB: math.NaN(), ERdB: 3},
		{ILdB: math.Inf(1), ERdB: 3},
		{ILdB: 1, ERdB: math.NaN()},
		{ILdB: 1, ERdB: math.Inf(1)},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("IL %g dB, ER %g dB accepted", m.ILdB, m.ERdB)
		}
	}
}

func TestMZIString(t *testing.T) {
	s := MZI{ILdB: 6.5, ERdB: 7.5, SpeedGbps: 60, PhaseShifterLenMM: 0.75}.String()
	if !strings.Contains(s, "6.50dB") || !strings.Contains(s, "60Gb/s") {
		t.Errorf("String() = %q", s)
	}
}

func TestMZIBankWeightStates(t *testing.T) {
	// The 2nd-order adder produces exactly three power levels
	// (Fig. 3b/c/d) ordered T(11) < T(01)=T(10) < T(00).
	bank := NewUniformMZIBank(2, MZI{ILdB: 4.5, ERdB: 13.22})
	t00 := bank.Transmission([]int{0, 0})
	t01 := bank.Transmission([]int{0, 1})
	t10 := bank.Transmission([]int{1, 0})
	t11 := bank.Transmission([]int{1, 1})
	if t01 != t10 {
		t.Errorf("mixed states differ: %g vs %g", t01, t10)
	}
	if !(t11 < t01 && t01 < t00) {
		t.Errorf("ordering violated: %g %g %g", t11, t01, t00)
	}
	// And match Eq. (7a)'s averages.
	il := LossToLinear(4.5)
	er := ExtinctionToLinear(13.22)
	if math.Abs(t00-il) > 1e-12 {
		t.Errorf("T(00) = %g, want IL%% = %g", t00, il)
	}
	if math.Abs(t11-il*er) > 1e-12 {
		t.Errorf("T(11) = %g, want IL%%*ER%% = %g", t11, il*er)
	}
	if math.Abs(t01-il*(1+er)/2) > 1e-12 {
		t.Errorf("T(01) = %g, want IL%%(1+ER%%)/2 = %g", t01, il*(1+er)/2)
	}
}

func TestMZIBankWeightShortcut(t *testing.T) {
	bank := NewUniformMZIBank(4, MZI{ILdB: 4.5, ERdB: 10})
	combos := map[int][]int{
		0: {0, 0, 0, 0},
		1: {1, 0, 0, 0},
		2: {0, 1, 1, 0},
		3: {1, 1, 0, 1},
		4: {1, 1, 1, 1},
	}
	for ones, x := range combos {
		if got, want := bank.TransmissionByWeight(ones), bank.Transmission(x); math.Abs(got-want) > 1e-15 {
			t.Errorf("weight %d: shortcut %g vs full %g", ones, got, want)
		}
	}
}

func TestMZIBankPanics(t *testing.T) {
	bank := NewUniformMZIBank(2, MZI{ILdB: 4.5, ERdB: 10})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("wrong width", func() { bank.Transmission([]int{1}) })
	mustPanic("weight too high", func() { bank.TransmissionByWeight(3) })
	mustPanic("negative weight", func() { bank.TransmissionByWeight(-1) })
}

func TestMZIBankSplitterLoss(t *testing.T) {
	bank := NewUniformMZIBank(2, MZI{ILdB: 0, ERdB: 10})
	bank.Splitter.ExcessLossDB = 3.0103 // halves the power
	lossless := NewUniformMZIBank(2, MZI{ILdB: 0, ERdB: 10})
	got := bank.Transmission([]int{0, 0})
	want := lossless.Transmission([]int{0, 0}) / 2
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("splitter loss not applied: %g vs %g", got, want)
	}
}
