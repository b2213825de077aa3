// Command gammasim runs the paper's motivating application (§V.C):
// gamma correction of a grayscale image through a 6th-order Bernstein
// polynomial, computed exactly, by the electronic ReSC baseline and
// by the optical stochastic-computing unit. It reports PSNR against
// the exact result, the optical unit's laser energy, and the
// throughput advantage over a 100 MHz electronic implementation.
//
// Usage:
//
//	gammasim -gamma 0.45 -degree 6 -size 128 -stream 4096
//	gammasim -in photo.pgm -out corrected.pgm
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	img "repro/internal/image"
)

func main() {
	gamma := flag.Float64("gamma", 0.45, "gamma exponent")
	degree := flag.Int("degree", 6, "Bernstein polynomial degree")
	size := flag.Int("size", 128, "synthetic image edge length (ignored with -in)")
	stream := flag.Int("stream", 4096, "stochastic stream length per gray level")
	spacing := flag.Float64("spacing", 0.3, "optical wavelength spacing in nm")
	inPath := flag.String("in", "", "input PGM (default: synthetic radial test image)")
	outPath := flag.String("out", "", "write the optically corrected PGM here")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	if err := run(*gamma, *degree, *size, *stream, *spacing, *inPath, *outPath, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "gammasim:", err)
		os.Exit(1)
	}
}

func run(gamma float64, degree, size, stream int, spacing float64, inPath, outPath string, seed uint64) error {
	var src *img.Gray
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err = img.ReadPGM(f)
		if err != nil {
			return err
		}
	} else {
		src = img.Radial(size, size)
	}
	// Size the optical design before either image pass, so a recipe no
	// optical circuit can run fails at once.
	p, err := img.GammaDesign(degree, spacing)
	if err != nil {
		return err
	}
	fmt.Printf("input: %dx%d, gamma %.2f, degree %d, stream length %d\n", src.W, src.H, gamma, degree, stream)

	ctx := context.Background()
	exact := img.GammaExact(src, gamma)
	ele, err := img.GammaReSC(ctx, engine.WordParallel, src, gamma, degree, stream, seed)
	if err != nil {
		return err
	}
	opt, err := img.GammaOptical(ctx, engine.WordParallel, src, gamma, degree, spacing, stream, seed+1)
	if err != nil {
		return err
	}

	fmt.Printf("electronic ReSC:  PSNR %.2f dB, MAE %.2f levels\n", img.PSNR(exact, ele), img.MeanAbsoluteError(exact, ele))
	fmt.Printf("optical SC unit:  PSNR %.2f dB, MAE %.2f levels\n", img.PSNR(exact, opt), img.MeanAbsoluteError(exact, opt))

	e := core.ParamsEnergy(p)
	bitsPerPixel := float64(stream)
	fmt.Printf("optical energy:   %.2f pJ/bit -> %.2f nJ/pixel at %d-bit streams\n",
		e.TotalPJ(), e.TotalPJ()*bitsPerPixel/1e3, stream)
	fmt.Printf("throughput:       %.3g pixels/s at 1 Gb/s (%.0fx the 100 MHz electronic ReSC)\n",
		p.ThroughputBitsPerSec(stream), p.SpeedupVsElectronic(100))

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := opt.WritePGM(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}
