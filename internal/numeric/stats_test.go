package numeric

import (
	"math"
	"testing"
)

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
