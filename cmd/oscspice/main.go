// Command oscspice runs a SPICE-like transient simulation of the
// optical stochastic-computing circuit from a textual netlist deck —
// the workflow the paper's future work sketches ("a SPICE model for
// transient simulation of the optical circuit").
//
// Usage:
//
//	oscspice deck.osc
//	echo "order 2
//	poly 0.25 0.625 0.75
//	input 0.5" | oscspice -
//
// See internal/netlist for the deck grammar. The run reports the
// sized design, the de-randomized result against the analytic value,
// the measured vs analytic worst-case BER, and eye statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/transient"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: oscspice <deck.osc | ->")
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "oscspice:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	var src io.Reader
	if path == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	deck, err := netlist.Parse(src)
	if err != nil {
		return err
	}
	e, err := netlist.Elaborate(deck)
	if err != nil {
		return err
	}

	p := e.Params
	fmt.Printf("design (%s):\n", deck.Method)
	fmt.Printf("  order %d, spacing %.4f nm, λref %.4f nm\n", p.Order, p.WLSpacingNM, p.LambdaRefNM())
	fmt.Printf("  MZI IL %.2f dB, ER %.2f dB\n", p.MZI.ILdB, p.MZI.ERdB)
	fmt.Printf("  pump %.2f mW, probes %d × %.4f mW\n", p.PumpPowerMW, p.Order+1, p.ProbePowerMW)
	fmt.Printf("  polynomial: %v\n\n", e.Poly)

	analytic := e.Poly.Eval(deck.InputX)
	if deck.Noise {
		sim := transient.NewSimulator(e.Unit, deck.Seed+1)
		got, _, err := sim.EvaluateWords(deck.InputX, deck.Bits)
		if err != nil {
			return err
		}
		measured, err := sim.MeasureWorstCaseBER(200_000)
		if err != nil {
			return err
		}
		fmt.Printf("transient (noisy, σ = %.4g mW):\n", sim.SigmaMW)
		fmt.Printf("  B(%.4g) = %.5f  (analytic %.5f, %d bits)\n", deck.InputX, got, analytic, deck.Bits)
		fmt.Printf("  worst-case BER: measured %.3e, analytic %.3e\n",
			measured, sim.AnalyticWorstCaseBER())
		eye, err := sim.MeasureEyeCtx(context.Background(), engine.WordParallel, deck.InputX, 20_000)
		if err != nil {
			return err
		}
		fmt.Printf("  %v\n", eye)
	} else {
		got, _ := e.Unit.EvaluateWords(deck.InputX, deck.Bits)
		fmt.Println("transient (noiseless):")
		fmt.Printf("  B(%.4g) = %.5f  (analytic %.5f, %d bits)\n", deck.InputX, got, analytic, deck.Bits)
	}
	return nil
}
