package optics_test

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestEndToEndProbePathMatchesCoreModel rebuilds the paper circuit's
// worst-case probe path at complex-field level — the probe traversing
// every modulator ring's through port and the filter's drop port —
// and checks the resulting power transmission against
// core.Circuit.ProbeTransmission for every coefficient pattern and
// data state. Because the bus has no reflective elements, amplitude
// products and intensity products must agree exactly; this pins the
// core model to first-principles interference end to end.
func TestEndToEndProbePathMatchesCoreModel(t *testing.T) {
	c := core.MustCircuit(core.PaperParams())
	n := c.P.Order

	// Field-level replicas of the modulator rings and filter.
	rings := make([]Ring, n+1)
	for i, m := range c.Modulators {
		r, err := NewRing(m.SelfCoupling1, m.SelfCoupling2, m.Amplitude)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	filter, err := NewRing(c.Filter.SelfCoupling1, c.Filter.SelfCoupling2, c.Filter.Amplitude)
	if err != nil {
		t.Fatal(err)
	}

	z := make([]int, n+1)
	for pattern := 0; pattern < 1<<(n+1); pattern++ {
		for b := range z {
			z[b] = (pattern >> b) & 1
		}
		for weight := 0; weight <= n; weight++ {
			d := c.FilterShiftNM(weight)
			for i := 0; i <= n; i++ {
				lam := c.P.Lambda(i)
				// Field product along the bus.
				amp := complex(1, 0)
				for w := range rings {
					res := c.Modulators[w].ResonanceNM
					if z[w] != 0 {
						res -= c.P.DeltaLambdaNM
					}
					theta := c.Modulators[w].Phase(lam, res)
					amp *= rings[w].ThroughAmplitude(theta)
				}
				thetaF := c.Filter.Phase(lam, c.P.LambdaRefNM()-d)
				amp *= filter.DropAmplitude(thetaF)
				got := real(amp)*real(amp) + imag(amp)*imag(amp)
				want := c.ProbeTransmission(i, z, d)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("z=%v weight=%d channel=%d: field %g vs core %g",
						z, weight, i, got, want)
				}
			}
		}
	}
}
