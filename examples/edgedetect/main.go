// Edgedetect: the second classic error-tolerant image workload of
// stochastic computing — Robert's-cross edge detection built from two
// correlated-XOR absolute-difference gates and an averaging
// multiplexer. Runs the packed tiled multi-core engine against the
// bit-serial oracle to show they emit the same image, and the speedup.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/engine"
	img "repro/internal/image"
)

func main() {
	const stream = 2048

	src := img.Checkerboard(64, 64, 8, 30, 220)
	exact := img.RobertsCrossExact(src)

	start := time.Now()
	sc, err := img.RobertsCrossSCOn(engine.WordParallel, src, stream, 7)
	if err != nil {
		log.Fatal(err)
	}
	packed := time.Since(start)

	start = time.Now()
	oracle, err := img.RobertsCrossSCOn(engine.Serial, src, stream, 7)
	if err != nil {
		log.Fatal(err)
	}
	serial := time.Since(start)

	fmt.Printf("Robert's cross on a 64x64 checkerboard (%d-bit streams)\n", stream)
	fmt.Printf("SC vs exact: PSNR %.2f dB, MAE %.2f gray levels\n",
		img.PSNR(exact, sc), img.MeanAbsoluteError(exact, sc))
	if img.MeanAbsoluteError(oracle, sc) != 0 {
		log.Fatal("packed engine diverged from the bit-serial oracle")
	}
	fmt.Printf("packed tiled engine %v vs bit-serial oracle %v (%.1fx), bit-identical\n",
		packed.Round(time.Millisecond), serial.Round(time.Millisecond),
		float64(serial)/float64(packed))

	// Edges fire, flats stay dark.
	fmt.Printf("response on an edge pixel:  exact %3d, SC %3d\n", exact.At(7, 2), sc.At(7, 2))
	fmt.Printf("response on a flat pixel:   exact %3d, SC %3d\n", exact.At(3, 3), sc.At(3, 3))

	for name, im := range map[string]*img.Gray{
		"edges_input.pgm": src,
		"edges_exact.pgm": exact,
		"edges_sc.pgm":    sc,
	} {
		f, err := os.Create(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := im.WritePGM(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	fmt.Println("wrote edges_{input,exact,sc}.pgm")
}
