// Quickstart: build the paper's 2nd-order optical stochastic-
// computing circuit, evaluate a Bernstein polynomial on it, and
// compare against the analytic value and the electronic ReSC
// baseline.
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
	// The §V.A reference design: 2nd order, 1 nm spacing, λ2 =
	// 1550 nm, 591.8 mW pump, 13.22 dB extinction ratio.
	params := core.PaperParams()
	circuit, err := core.NewCircuit(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pump laser:  %.1f mW\n", params.PumpPowerMW)
	fmt.Printf("MZI:         IL %.1f dB, ER %.2f dB\n", params.MZI.ILdB, params.MZI.ERdB)
	fmt.Printf("worst BER:   %.2e\n\n", circuit.BER())

	// An order-2 Bernstein polynomial with probability coefficients:
	// B(x) = 0.25·B02 + 0.625·B12 + 0.75·B22.
	poly := stochastic.NewBernstein([]float64{0.25, 0.625, 0.75})

	unit, err := core.NewUnit(circuit, poly, 2024)
	if err != nil {
		log.Fatal(err)
	}

	// Electronic baseline with independent randomness.
	resc, err := stochastic.NewReSCWithSeeds(poly, 4096)
	if err != nil {
		log.Fatal(err)
	}

	const bits = 1 << 14
	fmt.Printf("%-6s %-10s %-10s %-10s\n", "x", "analytic", "optical", "electronic")
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		optical, _ := unit.Evaluate(x, bits)
		electronic, _ := resc.Evaluate(x, bits)
		fmt.Printf("%-6.2f %-10.4f %-10.4f %-10.4f\n", x, poly.Eval(x), optical, electronic)
	}

	// The same sweep as one batch on the word-parallel engine: inputs
	// fan out over all cores, each with index-derived randomness, so
	// the result is reproducible on any machine and engine.
	xs := []float64{0, 0.25, 0.5, 0.75, 1}
	batch, err := unit.EvaluateBatch(context.Background(), engine.WordParallel, xs, bits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-6s %-10s\n", "x", "batch")
	for i, x := range xs {
		fmt.Printf("%-6.2f %-10.4f\n", x, batch[i])
	}

	e := core.ParamsEnergy(params)
	fmt.Printf("\nlaser energy: %.1f pJ per computed bit (pump %.1f + %d probes %.1f)\n",
		e.TotalPJ(), e.PumpPJ, e.ProbeLasers, e.ProbePJ)
}
