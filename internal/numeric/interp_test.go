package numeric

import (
	"math"
	"testing"
)

func TestLinspace(t *testing.T) {
	s := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-15 {
			t.Errorf("Linspace[%d] = %g, want %g", i, s[i], want[i])
		}
	}
	if s[len(s)-1] != 1 {
		t.Error("Linspace endpoint not exact")
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linspace(0,1,1) did not panic")
		}
	}()
	Linspace(0, 1, 1)
}
