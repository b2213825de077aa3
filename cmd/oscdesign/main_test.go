package main

import (
	"math"
	"testing"
)

// TestDesignRejectsBadFlags: a flag value that no physical design has
// (NaN, an infinity, or a BER target outside (0, 0.5)) must fail the
// sizing with an error instead of printing a NaN or 0 mW design.
func TestDesignRejectsBadFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name                       string
		method                     string
		spacing, il, er, pump, ber float64
	}{
		{"spacing NaN", "mrr-first", nan, 4.5, 7.5, 600, 1e-6},
		{"spacing Inf", "mrr-first", inf, 4.5, 7.5, 600, 1e-6},
		{"ber NaN", "mrr-first", 1, 4.5, 7.5, 600, nan},
		{"ber 0.7", "mrr-first", 1, 4.5, 7.5, 600, 0.7},
		{"ber -1", "mrr-first", 1, 4.5, 7.5, 600, -1},
		{"il NaN", "mrr-first", 1, nan, 7.5, 600, 1e-6},
		{"mzi-first er NaN", "mzi-first", 1, 6.5, nan, 600, 1e-6},
		{"mzi-first pump Inf", "mzi-first", 1, 6.5, 7.5, inf, 1e-6},
		{"mzi-first ber 0.7", "mzi-first", 1, 6.5, 7.5, 600, 0.7},
	}
	for _, c := range cases {
		p, err := design(c.method, 2, c.spacing, c.il, c.er, c.pump, c.ber, false)
		if err == nil {
			t.Errorf("%s: design accepted: pump %g mW, probe %g mW", c.name, p.PumpPowerMW, p.ProbePowerMW)
		}
	}
	for _, method := range []string{"mrr-first", "mzi-first"} {
		if _, err := design(method, 2, 1, 6.5, 7.5, 600, 1e-6, false); err != nil {
			t.Errorf("%s with the documented flags: %v", method, err)
		}
	}
}
