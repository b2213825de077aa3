package image

import (
	"context"
	"testing"

	"repro/internal/engine"
)

func TestRobertsCrossExactOnStep(t *testing.T) {
	// A vertical step edge: detector fires along the boundary only.
	img := NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			img.Set(x, y, 255)
		}
	}
	e := RobertsCrossExact(img)
	// Column 3/4 boundary: both diagonal differences are 1 for
	// pixels straddling the edge.
	if e.At(3, 2) < 200 {
		t.Errorf("edge response %d at boundary", e.At(3, 2))
	}
	// Flat regions: zero response.
	if e.At(0, 0) != 0 || e.At(6, 3) != 0 {
		t.Errorf("flat response %d / %d", e.At(0, 0), e.At(6, 3))
	}
}

func TestRobertsCrossSCMatchesExact(t *testing.T) {
	src := Checkerboard(16, 16, 4, 40, 210)
	exact := RobertsCrossExact(src)
	sc, err := RobertsCrossSCOn(engine.WordParallel, src, 2048, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The SC detector must agree within a few gray levels on
	// average; correlated XOR makes |a-b| exact up to stream
	// quantization.
	if mae := MeanAbsoluteError(exact, sc); mae > 6 {
		t.Errorf("SC edge MAE = %.2f levels", mae)
	}
	if psnr := PSNR(exact, sc); psnr < 25 {
		t.Errorf("SC edge PSNR = %.1f dB", psnr)
	}
}

func TestRobertsCrossSCEdgesFire(t *testing.T) {
	img := NewGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			img.Set(x, y, 255)
		}
	}
	e, err := RobertsCrossSCOn(engine.WordParallel, img, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.At(3, 2) < 180 {
		t.Errorf("SC edge response %d", e.At(3, 2))
	}
	if e.At(0, 0) > 20 {
		t.Errorf("SC flat response %d", e.At(0, 0))
	}
}

func TestRobertsCrossGradientQuiet(t *testing.T) {
	// A gentle ramp has small derivatives: responses stay low.
	src := Gradient(64, 8)
	e := RobertsCrossExact(src)
	for x := 0; x < 62; x++ {
		if e.At(x, 3) > 10 {
			t.Fatalf("ramp response %d at x=%d", e.At(x, 3), x)
		}
	}
}

func TestRobertsCrossSCErrors(t *testing.T) {
	src := Checkerboard(8, 8, 2, 0, 255)
	if _, err := RobertsCrossSCOn(engine.WordParallel, src, 0, 1); err == nil {
		t.Error("zero stream length accepted")
	}
	if _, err := RobertsCrossSCOn(engine.WordParallel, src, -5, 1); err == nil {
		t.Error("negative stream length accepted")
	}
}

// TestRobertsCrossSCDegenerateDims: images with no interior 2x2
// window come back all dark without touching the engine.
func TestRobertsCrossSCDegenerateDims(t *testing.T) {
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {1, 1}} {
		out, err := RobertsCrossSCOn(engine.WordParallel, NewGray(dims[0], dims[1]), 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range out.Pix {
			if p != 0 {
				t.Fatalf("%dx%d: pixel %d = %d", dims[0], dims[1], i, p)
			}
		}
	}
}

// TestImageQualityRegression pins the PSNR of both canonical image
// workloads at fixed seeds, so engine rewrites cannot silently degrade
// quality: both paths are deterministic, and these floors sit a few
// dB under the measured 47.4 dB (edge) and 39.3 dB (gamma).
func TestImageQualityRegression(t *testing.T) {
	edgeSrc := Checkerboard(64, 64, 8, 30, 220)
	sc, err := RobertsCrossSCOn(engine.WordParallel, edgeSrc, 2048, 7)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(RobertsCrossExact(edgeSrc), sc); psnr < 44 {
		t.Errorf("edge PSNR regressed to %.2f dB", psnr)
	}

	gammaSrc := Gradient(128, 4)
	g, err := GammaReSC(context.Background(), engine.WordParallel, gammaSrc, 0.45, 6, 4096, 11)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(GammaExact(gammaSrc, 0.45), g); psnr < 36 {
		t.Errorf("gamma PSNR regressed to %.2f dB", psnr)
	}
}
