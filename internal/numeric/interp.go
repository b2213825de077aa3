package numeric

// Linspace returns n equally spaced samples spanning [a, b]
// inclusive. n must be at least 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
