// Reconfigurable: the paper's conclusion proposes exploiting the
// order-independence of the optimal wavelength spacing to build one
// circuit that evaluates polynomials of several degrees. This example
// sizes designs for orders 2..4 at the shared optimal spacing and
// runs a different polynomial on each.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

func main() {
	// Locate the optimal spacing for the smallest order; the paper's
	// observation is that it serves the others too.
	ctx := context.Background()
	opt, err := core.NewEnergyModel(2).OptimalSpacingCtx(ctx, engine.WordParallel, 0.1, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared spacing: %.3f nm (n=2 optimum)\n\n", opt.WLSpacingNM)

	rc, err := core.NewReconfigurable(core.MRRFirstSpec{}, opt.WLSpacingNM, []int{2, 3, 4})
	if err != nil {
		log.Fatal(err)
	}

	polys := map[int]stochastic.BernsteinPoly{
		2: stochastic.NewBernstein([]float64{0.9, 0.2, 0.6}),
		3: stochastic.PaperF1(), // the paper's running example
		4: stochastic.NewBernstein([]float64{0.1, 0.3, 0.5, 0.7, 0.9}),
	}

	const bits = 1 << 14
	for _, n := range rc.Orders() {
		poly := polys[n]
		fmt.Printf("order %d: %v\n", n, poly)
		for _, x := range []float64{0.25, 0.5, 0.75} {
			got, err := rc.Evaluate(poly, x, bits, uint64(100+n))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  B(%.2f) = %.4f (analytic %.4f)\n", x, got, poly.Eval(x))
		}
	}

	fmt.Println("\nenergy at the shared spacing vs each order's own optimum:")
	// Walk the orders in rc.Orders() order, not map order: ranging the
	// EnergyByOrder map directly shuffled the lines run to run.
	energy := rc.EnergyByOrder()
	for _, n := range rc.Orders() {
		e := energy[n]
		own, err := core.NewEnergyModel(n).OptimalSpacingCtx(ctx, engine.WordParallel, 0.1, 0.3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  n=%d: %.2f pJ/bit shared vs %.2f pJ/bit own optimum (+%.1f%%)\n",
			n, e.TotalPJ(), own.TotalPJ(), 100*(e.TotalPJ()/own.TotalPJ()-1))
	}
}
