// Designspace: run both of the paper's design methods (§IV.B) and
// the Fig. 7 energy optimization, showing how the MRR-first and
// MZI-first flows trade pump power, extinction ratio, probe power and
// wavelength spacing against each other.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optics"
)

func main() {
	// MRR-first: fix the wavelength plan, derive lasers and ER.
	mrr, err := core.MRRFirst(core.MRRFirstSpec{
		Order:       2,
		WLSpacingNM: 1.0,
		ModShape:    core.Fig5ModulatorShape(),
		FilterShape: core.Fig5FilterShape(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MRR-first (§V.A reference):")
	fmt.Printf("  pump %.1f mW, ER %.2f dB, probe %.4f mW\n\n",
		mrr.PumpPowerMW, mrr.MZI.ERdB, mrr.ProbePowerMW)

	// MZI-first: fix the device and pump, derive the comb.
	mzi, err := core.MZIFirst(core.MZIFirstSpec{
		Order:       2,
		MZI:         optics.MZI{ILdB: 6.5, ERdB: 7.5}, // Xiao et al. [19]
		PumpPowerMW: 600,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("MZI-first (Xiao et al. device, 0.6 W pump):")
	fmt.Printf("  spacing %.3f nm, λ0 %.3f nm, probe %.4f mW (paper: 0.26 mW)\n\n",
		mzi.WLSpacingNM, mzi.Lambda(0), mzi.ProbePowerMW)

	// Energy optimization across the spacing range (Fig. 7a).
	ctx, e := context.Background(), engine.WordParallel
	model := core.NewEnergyModel(2)
	fmt.Println("energy vs spacing (n=2):")
	sweep, err := model.SweepCtx(ctx, e, 0.1, 0.3, 9)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range sweep {
		fmt.Printf("  %.3f nm: pump %6.2f + probe %6.2f = %6.2f pJ/bit\n",
			b.WLSpacingNM, b.PumpPJ, b.ProbePJ, b.TotalPJ())
	}
	opt, err := model.OptimalSpacingCtx(ctx, e, 0.1, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimum: %.3f nm -> %.2f pJ/bit (paper: 0.165 nm, 20.1 pJ)\n",
		opt.WLSpacingNM, opt.TotalPJ())

	saving, fixed, _, err := model.EnergySavingVsFixed(ctx, e, 1.0, 0.1, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saving vs 1 nm spacing (%.1f pJ): %.1f%% (paper: 76.6%%)\n",
		fixed.TotalPJ(), saving*100)
}
