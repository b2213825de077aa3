package numeric

import (
	"math"
	"testing"
)

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9, -5, 5}
	h := Histogram(xs, 0, 1, 2)
	if h[0] != 3 || h[1] != 3 {
		t.Errorf("Histogram = %v", h)
	}
	h1 := Histogram(xs, 1, 1, 3) // degenerate range
	if h1[0] != len(xs) {
		t.Errorf("degenerate Histogram = %v", h1)
	}
}

func TestErrorMetrics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 3, 5}
	if got := MeanAbsError(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("MeanAbsError = %g", got)
	}
	if MeanAbsError(nil, nil) != 0 {
		t.Error("empty metrics not zero")
	}
}

func TestErrorMetricsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MeanAbsError([]float64{1}, []float64{1, 2})
}
