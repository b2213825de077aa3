package stochastic

import (
	"fmt"
)

// ReSC is the electronic Reconfigurable Stochastic Computing unit of
// Qian et al. summarized in the paper's Fig. 1(a): n data SNGs, n+1
// coefficient SNGs, an adder counting the ones among the data bits,
// and a multiplexer routing coefficient stream z_sum to the output.
// The output counter de-randomizes the result.
//
// It evaluates the Bernstein polynomial B(x) = Σ b_i B_{i,n}(x)
// because P(sum = i) = B_{i,n}(x) when the n data streams are
// independent Bernoulli(x).
type ReSC struct {
	Poly BernsteinPoly
	// DataSources drive the n data SNGs; CoefSources the n+1
	// coefficient SNGs. All must be mutually independent for the
	// Bernstein identity to hold.
	DataSources []NumberSource
	CoefSources []NumberSource
}

// NewReSC wires a ReSC unit for the polynomial with independent
// sources. It returns an error if the polynomial is not
// SC-representable or the source counts do not match the degree.
func NewReSC(poly BernsteinPoly, data, coef []NumberSource) (*ReSC, error) {
	n := poly.Degree()
	if n < 0 {
		return nil, fmt.Errorf("stochastic: empty polynomial")
	}
	if !poly.Representable() {
		return nil, fmt.Errorf("stochastic: polynomial %v has coefficients outside [0,1]", poly)
	}
	if len(data) != n {
		return nil, fmt.Errorf("stochastic: need %d data sources, got %d", n, len(data))
	}
	if len(coef) != n+1 {
		return nil, fmt.Errorf("stochastic: need %d coefficient sources, got %d", n+1, len(coef))
	}
	return &ReSC{Poly: poly, DataSources: data, CoefSources: coef}, nil
}

// NewReSCWithSeeds builds a ReSC whose sources are independent
// SplitMix64 streams derived from seed — the convenient constructor
// for simulations.
func NewReSCWithSeeds(poly BernsteinPoly, seed uint64) (*ReSC, error) {
	dataSeeds, coefSeeds := rescSeeds(poly.Degree(), seed)
	data := make([]NumberSource, len(dataSeeds))
	for i, s := range dataSeeds {
		data[i] = NewSplitMix64(s)
	}
	coef := make([]NumberSource, len(coefSeeds))
	for i, s := range coefSeeds {
		coef[i] = NewSplitMix64(s)
	}
	return NewReSC(poly, data, coef)
}

// rescSeeds derives the seeds of a degree-n unit's n data and n+1
// coefficient SplitMix64 sources from one base seed. NewReSCWithSeeds
// and EvaluateBatch's ReSCOnesSplitMix both seed from it, so the two
// draw the same bits.
func rescSeeds(n int, seed uint64) (data, coef []uint64) {
	data = make([]uint64, n)
	for i := range data {
		data[i] = seed + uint64(i)*0x9E3779B9 + 1
	}
	coef = make([]uint64, n+1)
	for i := range coef {
		coef[i] = seed + 0xABCDEF + uint64(i)*0x61C88647
	}
	return data, coef
}

// Degree returns the polynomial degree n.
func (r *ReSC) Degree() int { return r.Poly.Degree() }

// Step runs one clock cycle for input probability x and returns the
// output bit along with the adder value (the MUX select). As in the
// Fig. 1(a) hardware, every one of the n+1 coefficient SNGs clocks
// each cycle and the multiplexer picks z_sum among them — so each
// source's consumption depends only on the cycle count, which is what
// lets the packed EvaluateWords oracle (packed_words_test.go)
// reproduce this path bit-for-bit word-at-a-time.
func (r *ReSC) Step(x float64) (bit, sel int) {
	n := r.Degree()
	sum := 0
	for i := 0; i < n; i++ {
		if sngBit(r.DataSources[i], x) == 1 {
			sum++
		}
	}
	for i := 0; i <= n; i++ {
		zi := sngBit(r.CoefSources[i], r.Poly.Coef[i])
		if i == sum {
			bit = zi
		}
	}
	return bit, sum
}

func sngBit(src NumberSource, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if src.Next() < p {
		return 1
	}
	return 0
}

// Evaluate runs `length` clock cycles at input x and returns the
// de-randomized estimate of B(x) together with the raw output stream.
func (r *ReSC) Evaluate(x float64, length int) (float64, *Bitstream) {
	out := NewBitstream(length)
	for t := 0; t < length; t++ {
		bit, _ := r.Step(x)
		out.Set(t, bit)
	}
	return out.Value(), out
}
