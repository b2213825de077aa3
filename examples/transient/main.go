// Transient: time-domain simulation of the optical SC unit (the
// paper's future-work item ii). Shows the pulse-gated detection
// waveform, the measured vs analytical bit-error rate, and the
// throughput-accuracy trade-off of §V.B.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
	"repro/internal/transient"
)

func main() {
	// Run the link deliberately hot: probe sized for BER 1e-3 so
	// errors are visible in short simulations.
	params := core.PaperParams()
	params.ProbePowerMW = core.MustCircuit(params).MinProbePowerMW(1e-3)
	circuit, err := core.NewCircuit(params)
	if err != nil {
		log.Fatal(err)
	}
	unit, err := core.NewUnit(circuit, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 11)
	if err != nil {
		log.Fatal(err)
	}
	sim := transient.NewSimulator(unit, 12)
	ctx, e := context.Background(), engine.WordParallel

	fmt.Printf("probe power: %.4f mW (sized for BER 1e-3); noise sigma %.4f mW\n\n",
		params.ProbePowerMW, sim.SigmaMW)

	// 1. Waveform: 8 bit slots, 16 samples each.
	fmt.Println("pulse-gated waveform (x = received power, gated samples uppercase):")
	trace, err := sim.TraceCtx(ctx, e, 0.5, 8, 16)
	if err != nil {
		log.Fatal(err)
	}
	maxP := 0.0
	for _, pt := range trace {
		if pt.ReceivedMW > maxP {
			maxP = pt.ReceivedMW
		}
	}
	var sb strings.Builder
	for _, pt := range trace {
		level := int(pt.ReceivedMW / (maxP + 1e-12) * 8)
		ch := " .:-=+*#%@"[minInt(level, 9)]
		if pt.Gated {
			sb.WriteByte(byte(ch))
		} else {
			sb.WriteByte('_')
		}
	}
	fmt.Println(sb.String())
	fmt.Println("(one 26 ps pump pulse per 1 ns slot; detection happens in the gated window)")

	// 2. Eye statistics.
	eye := sim.MeasureEyeOn(e, 0.5, 20000)
	fmt.Printf("\n%v\n", eye)

	// 3. BER: measured vs Eq. (9).
	analytic := sim.AnalyticWorstCaseBER()
	measured, err := sim.MeasureWorstCaseBER(400000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst-case BER: measured %.3e vs analytic %.3e\n", measured, analytic)

	// 4. Throughput-accuracy trade-off, word-parallel.
	fmt.Println("\naccuracy vs stream length at x=0.5:")
	pts, err := sim.AccuracyVsLengthCtx(ctx, e, 0.5, []int{64, 256, 1024, 4096}, 40)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range pts {
		fmt.Printf("  %v\n", pt)
	}

	// 5. Monte-Carlo batch: 32 independent noisy trials per input,
	// fanned over all cores with per-trial seeds.
	fmt.Println("\nbatched Monte-Carlo (32 trials x 4096 bits per input):")
	for _, x := range []float64{0.25, 0.5, 0.75} {
		xs := make([]float64, 32)
		for i := range xs {
			xs[i] = x
		}
		vals, err := sim.EvaluateBatch(xs, 4096)
		if err != nil {
			log.Fatal(err)
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		fmt.Printf("  x=%.2f: mean %.5f (analytic %.5f)\n", x, mean, unit.Poly.Eval(x))
	}
	fmt.Println("\nlonger streams absorb transmission errors (§V.B): halve the power, double the bits.")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
