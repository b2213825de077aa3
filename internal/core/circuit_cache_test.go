package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/stochastic"
)

// TestPowerTableMatchesReceivedPower: every cached entry equals the
// direct enumeration bit-for-bit — the factor products run in the same
// order as ProbeTransmission/ReceivedPowerMW — on the paper circuit,
// the order-6 gamma design and an order-8 MRR-first design. It is the
// oracle a faster table build must keep; the direct path costs 32 ms
// at order 8 and over a second at order 12, so it stops at 8.
func TestPowerTableMatchesReceivedPower(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Circuit
	}{
		{"paper order 2", paperCircuit(t)},
		{"gamma order 6 at 0.3 nm", designUnit(t, 6, 0.3, 1).Circuit},
		{"MRR-first order 8 at 0.3 nm", designUnit(t, 8, 0.3, 1).Circuit},
	} {
		c := tc.c
		pow := c.PowerTable()
		n := c.P.Order
		z := make([]int, n+1)
		for weight := 0; weight <= n; weight++ {
			for zmask := 0; zmask < 1<<(n+1); zmask++ {
				for b := range z {
					z[b] = zmask >> b & 1
				}
				if got, want := pow[weight][zmask], c.ReceivedPowerMW(weight, z); got != want {
					t.Fatalf("%s: w=%d zmask=%x: table %g vs direct %g", tc.name, weight, zmask, got, want)
				}
			}
		}
	}
}

// TestPowerTableOrderBound: Params.Validate caps the order at
// MaxOrder, the largest order whose power table is built, so NewCircuit
// and the design methods reject MaxOrder+1 with an error naming the
// bound.
func TestPowerTableOrderBound(t *testing.T) {
	p := PaperParams()
	p.WLSpacingNM = 0.05 // keep the comb inside the filter FSR
	p.Order = MaxOrder
	if err := p.Validate(); err != nil {
		t.Fatalf("order %d rejected: %v", MaxOrder, err)
	}
	p.Order = MaxOrder + 1
	bound := fmt.Sprint(MaxOrder)
	if _, err := NewCircuit(p); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("NewCircuit at order %d: err = %v, want one naming %s", p.Order, err, bound)
	}
	if _, err := MRRFirst(MRRFirstSpec{Order: MaxOrder + 1, WLSpacingNM: 0.2}); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("MRRFirst at order %d: err = %v, want one naming %s", MaxOrder+1, err, bound)
	}
}

// TestPowerBandsMatchesDirectScan pins the table-backed (and cached)
// band scan to the retained direct oracle.
func TestPowerBandsMatchesDirectScan(t *testing.T) {
	c := paperCircuit(t)
	minZ, maxZ, minO, maxO := c.PowerBands()
	dMinZ, dMaxZ, dMinO, dMaxO := powerBandsDirect(c)
	if minZ != dMinZ || maxZ != dMaxZ || minO != dMinO || maxO != dMaxO {
		t.Errorf("cached bands (%g %g %g %g) vs direct (%g %g %g %g)",
			minZ, maxZ, minO, maxO, dMinZ, dMaxZ, dMinO, dMaxO)
	}
	// Second call returns the cached values unchanged.
	minZ2, maxZ2, minO2, maxO2 := c.PowerBands()
	if minZ2 != minZ || maxZ2 != maxZ || minO2 != minO || maxO2 != maxO {
		t.Error("cached bands unstable across calls")
	}
}

// TestChannelDeltaMatchesDirect pins the one-hot Eq. (8) brackets to
// the direct enumeration, per channel, on the paper circuit, the
// order-6 gamma design, the Fig. 7(b) order-16 wide-FSR design at 1 nm
// and at 0.165 nm, and a yield-perturbed die (whose devices differ
// from the ones NewCircuit placed). Each design is checked on a fresh
// circuit, where the margin evaluates its own one-hot factors, and on
// one whose factor cache is already built, where it reads the cache;
// PowerTable builds that cache, which the cheap designs check through
// PowerTable itself. WorstCaseDelta must then report the smallest
// bracket and its channel.
func TestChannelDeltaMatchesDirect(t *testing.T) {
	wide := func(spacingNM float64) func(*testing.T) *Circuit {
		return func(t *testing.T) *Circuit {
			spec := NewWideCombEnergyModel(16).Spec
			spec.WLSpacingNM = spacingNM
			return mrrCircuit(t, spec)
		}
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *Circuit
		table bool // cheap enough to prime through PowerTable
	}{
		{"paper order 2", paperCircuit, true},
		{"gamma order 6 at 0.3 nm", func(t *testing.T) *Circuit {
			return mrrCircuit(t, MRRFirstSpec{Order: 6, WLSpacingNM: 0.3})
		}, true},
		{"Fig. 7(b) order 16 at 1 nm", wide(1), false},
		{"Fig. 7(b) order 16 at 0.165 nm", wide(0.165), false},
		{"yield-perturbed paper die", perturbedDie, true},
	} {
		for _, cached := range []bool{false, true} {
			c := tc.build(t)
			switch {
			case cached && tc.table:
				c.PowerTable()
			case cached:
				c.factors()
			}
			if got := c.fact.Load() != nil; got != cached {
				t.Fatalf("%s: factor cache built = %v, want %v", tc.name, got, cached)
			}
			d := c.channelDeltas()
			for i := 0; i <= c.P.Order; i++ {
				if want := c.channelDeltaDirect(i); d[i] != want {
					t.Errorf("%s (cached %v) channel %d: %g vs direct %g", tc.name, cached, i, d[i], want)
				}
			}
			delta, ch := c.WorstCaseDelta()
			for i := 0; i <= c.P.Order; i++ {
				if d[i] < delta || (d[i] == delta && i < ch) {
					t.Errorf("%s: WorstCaseDelta = %g at channel %d, channel %d has %g", tc.name, delta, ch, i, d[i])
				}
			}
			if delta != d[ch] {
				t.Errorf("%s: WorstCaseDelta = %g, channel %d bracket %g", tc.name, delta, ch, d[ch])
			}
		}
	}
}

// mrrCircuit instantiates an MRR-first design without building any of
// its caches.
func mrrCircuit(t *testing.T, spec MRRFirstSpec) *Circuit {
	t.Helper()
	p, err := MRRFirst(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// perturbedDie is the paper circuit with every ring detuned and
// recoupled as the yield sweep perturbs a die after NewCircuit.
func perturbedDie(t *testing.T) *Circuit {
	c := paperCircuit(t)
	g := stochastic.NewGaussian(stochastic.NewSplitMix64(11))
	for i := range c.Modulators {
		c.Modulators[i].ResonanceNM += 0.02 * g.Next()
		c.Modulators[i].SelfCoupling1 = clamp01open(c.Modulators[i].SelfCoupling1 * (1 + 0.01*g.Next()))
		c.Modulators[i].SelfCoupling2 = clamp01open(c.Modulators[i].SelfCoupling2 * (1 + 0.01*g.Next()))
	}
	c.Filter.SelfCoupling1 = clamp01open(c.Filter.SelfCoupling1 * (1 + 0.01*g.Next()))
	c.Filter.SelfCoupling2 = clamp01open(c.Filter.SelfCoupling2 * (1 + 0.01*g.Next()))
	return c
}

// TestWorstCaseDeltaOverZMatchesDirect pins the table-backed
// exhaustive margin to the retained direct enumeration.
func TestWorstCaseDeltaOverZMatchesDirect(t *testing.T) {
	c := paperCircuit(t)
	if got, want := c.WorstCaseDeltaOverZ(), worstCaseDeltaOverZDirect(c); got != want {
		t.Errorf("cached %g vs direct %g", got, want)
	}
}

// TestCircuitCachesConcurrent hammers every lazily built cache from
// concurrent goroutines on a fresh circuit; run under -race this
// verifies the sync.Once publication story.
func TestCircuitCachesConcurrent(t *testing.T) {
	c := paperCircuit(t)
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				_, maxZ, _, _ := c.PowerBands()
				results[g] = maxZ
			case 1:
				d, _ := c.WorstCaseDelta()
				results[g] = d
			case 2:
				results[g] = c.PowerTable()[1][2]
			case 3:
				results[g] = c.BER()
			}
		}(g)
	}
	wg.Wait()
	for g := 4; g < len(results); g++ {
		if results[g] != results[g-4] {
			t.Fatalf("goroutine %d saw %g, %d saw %g", g, results[g], g-4, results[g-4])
		}
	}
}

// channelDeltaDirect is the cache-free Eq. (8) bracket of channel i:
// the oracle for channelDeltas.
func (c *Circuit) channelDeltaDirect(i int) float64 {
	n := c.P.Order
	d := c.FilterShiftNM(i) // weight i selects channel i
	z := make([]int, n+1)

	z[i] = 1
	sig := c.ProbeTransmission(i, z, d)
	z[i] = 0

	xtalk := 0.0
	for w := 0; w <= n; w++ {
		if w == i {
			continue
		}
		z[w] = 1
		xtalk += c.ProbeTransmission(w, z, d)
		z[w] = 0
	}
	return sig - xtalk
}

// powerBandsDirect is the cache-free band scan: the oracle for the
// table-backed PowerBands.
func powerBandsDirect(c *Circuit) (minZero, maxZero, minOne, maxOne float64) {
	n := c.P.Order
	first0, first1 := true, true
	z := make([]int, n+1)
	for pattern := 0; pattern < 1<<(n+1); pattern++ {
		for b := range z {
			z[b] = (pattern >> b) & 1
		}
		for weight := 0; weight <= n; weight++ {
			p := c.ReceivedPowerMW(weight, z)
			if z[c.SelectedChannel(weight)] == 0 {
				if first0 || p < minZero {
					minZero = p
				}
				if first0 || p > maxZero {
					maxZero = p
				}
				first0 = false
			} else {
				if first1 || p < minOne {
					minOne = p
				}
				if first1 || p > maxOne {
					maxOne = p
				}
				first1 = false
			}
		}
	}
	return minZero, maxZero, minOne, maxOne
}

// worstCaseDeltaOverZDirect is the cache-free exhaustive margin: the
// oracle for the table-backed WorstCaseDeltaOverZ.
func worstCaseDeltaOverZDirect(c *Circuit) float64 {
	n := c.P.Order
	worst := math.Inf(1)
	z := make([]int, n+1)
	for weight := 0; weight <= n; weight++ {
		sel := c.SelectedChannel(weight)
		minOne := math.Inf(1)
		maxZero := math.Inf(-1)
		for pattern := 0; pattern < 1<<(n+1); pattern++ {
			for b := range z {
				z[b] = (pattern >> b) & 1
			}
			p := c.ReceivedPowerMW(weight, z) / c.P.ProbePowerMW
			if z[sel] == 1 {
				if p < minOne {
					minOne = p
				}
			} else if p > maxZero {
				maxZero = p
			}
		}
		if d := minOne - maxZero; d < worst {
			worst = d
		}
	}
	return worst
}
