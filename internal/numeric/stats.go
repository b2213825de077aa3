package numeric

import "math"

// Histogram counts xs into bins equally dividing [lo, hi]. Samples
// outside the range are clamped into the first/last bin. It returns
// the per-bin counts.
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	if bins < 1 {
		bins = 1
	}
	counts := make([]int, bins)
	if hi <= lo {
		counts[0] = len(xs)
		return counts
	}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts
}

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
