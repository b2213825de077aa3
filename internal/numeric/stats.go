package numeric

import "math"

// MeanAbsError returns the mean absolute difference between parallel
// slices a and b. It panics if the lengths differ.
//
//osclint:ignore testonly tests in stochastic, core and numeric share it
func MeanAbsError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: MeanAbsError length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}
