package image

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestGrayBasics(t *testing.T) {
	g := NewGray(4, 3)
	g.Set(3, 2, 200)
	if g.At(3, 2) != 200 {
		t.Error("Set/At broken")
	}
	c := g.Clone()
	c.Set(0, 0, 9)
	if g.At(0, 0) != 0 {
		t.Error("Clone aliases")
	}
	h := g.Histogram()
	if h[200] != 1 || h[0] != 11 {
		t.Errorf("Histogram = %v...", h[:3])
	}
}

func TestGrayPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dims", func() { NewGray(0, 5) })
	g := NewGray(2, 2)
	mustPanic("oob", func() { g.At(2, 0) })
}

func TestPGMRoundTripBinary(t *testing.T) {
	src := Gradient(31, 7)
	var buf bytes.Buffer
	if err := src.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != src.W || back.H != src.H {
		t.Fatalf("dims %dx%d", back.W, back.H)
	}
	for i := range src.Pix {
		if src.Pix[i] != back.Pix[i] {
			t.Fatalf("pixel %d: %d vs %d", i, src.Pix[i], back.Pix[i])
		}
	}
}

func TestPGMRoundTripASCII(t *testing.T) {
	src := Checkerboard(8, 8, 2, 10, 240)
	// ASCII PGM (P2, maxval 255), one row of pixels per line.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P2\n%d %d\n255\n", src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			fmt.Fprintf(&buf, "%d ", src.At(x, y))
		}
		buf.WriteString("\n")
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Pix {
		if src.Pix[i] != back.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

func TestPGMComments(t *testing.T) {
	data := "P2\n# a comment\n2 1\n# another\n255\n7 8\n"
	img, err := ReadPGM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if img.At(0, 0) != 7 || img.At(1, 0) != 8 {
		t.Errorf("pixels = %v", img.Pix)
	}
}

func TestPGMErrors(t *testing.T) {
	bad := []string{
		"",
		"P3\n1 1\n255\n0\n",
		"P2\n0 1\n255\n",
		"P2\n1 1\n70000\n0\n",
		"P2\n2 1\n255\n1\n",   // missing pixel
		"P2\n1 1\n255\n999\n", // out of range
		"P5\n2 2\n255\nab",    // short raster
	}
	for i, d := range bad {
		if _, err := ReadPGM(strings.NewReader(d)); err == nil {
			t.Errorf("bad PGM %d accepted", i)
		}
	}
}

// TestReadPGMHostileHeaders: a header claiming more pixels than the
// input carries is an error, not an allocation sized by the claim —
// a terabyte slice, a negative length from an overflowing product, or
// a product that wraps to zero and passes any pixel cap.
func TestReadPGMHostileHeaders(t *testing.T) {
	for _, tc := range []struct{ name, header string }{
		{"1TB", "P5 1000000 1000000 255\n"},
		{"product-overflows-negative", "P5 3037000500 3037000500 255\n"},
		{"product-wraps-to-zero", "P5 4294967296 4294967296 255\n"},
		{"ascii-1TB", "P2 1000000 1000000 255\n0 1 2\n"},
	} {
		g, err := ReadPGM(strings.NewReader(tc.header))
		if err == nil {
			t.Errorf("%s: accepted as %dx%d with %d pixels", tc.name, g.W, g.H, len(g.Pix))
		}
	}
}

// FuzzReadPGM: whatever the input, ReadPGM never panics, and an image
// it accepts holds exactly W*H pixels, no more than the input has
// bytes — the header alone can never size an allocation. The seed
// corpus (testdata/fuzz/FuzzReadPGM) holds the hostile headers of
// TestReadPGMHostileHeaders and one valid image of each format.
func FuzzReadPGM(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.W < 1 || g.H < 1 || g.H > math.MaxInt/g.W || len(g.Pix) != g.W*g.H || len(g.Pix) > len(data) {
			t.Fatalf("accepted %dx%d with %d pixels from %d input bytes", g.W, g.H, len(g.Pix), len(data))
		}
	})
}

func TestSynthGenerators(t *testing.T) {
	g := Gradient(256, 2)
	if g.At(0, 0) != 0 || g.At(255, 0) != 255 {
		t.Error("gradient endpoints wrong")
	}
	cb := Checkerboard(4, 4, 2, 5, 250)
	if cb.At(0, 0) != 5 || cb.At(2, 0) != 250 || cb.At(2, 2) != 5 {
		t.Error("checkerboard tiling wrong")
	}
	r := Radial(33, 33)
	if r.At(16, 16) != 255 {
		t.Errorf("radial center = %d", r.At(16, 16))
	}
	if r.At(0, 0) >= r.At(16, 16) {
		t.Error("radial corners not darker")
	}
	// Degenerate cell clamps.
	if got := Checkerboard(2, 2, 0, 0, 255); got.At(0, 0) != 0 || got.At(1, 0) != 255 {
		t.Error("cell clamp broken")
	}
}

func TestGammaExactKnownValues(t *testing.T) {
	src := NewGray(3, 1)
	src.Set(0, 0, 0)
	src.Set(1, 0, 64)
	src.Set(2, 0, 255)
	out := GammaExact(src, 0.45)
	if out.At(0, 0) != 0 || out.At(2, 0) != 255 {
		t.Error("endpoints must be fixed points")
	}
	want := uint8(math.Pow(64.0/255, 0.45)*255 + 0.5)
	if out.At(1, 0) != want {
		t.Errorf("gamma(64) = %d, want %d", out.At(1, 0), want)
	}
}

func TestGammaReSCQuality(t *testing.T) {
	src := Gradient(128, 4)
	exact := GammaExact(src, 0.45)
	got, err := GammaReSC(context.Background(), engine.WordParallel, src, 0.45, 6, 4096, 11)
	if err != nil {
		t.Fatal(err)
	}
	psnr := PSNR(exact, got)
	if psnr < 22 {
		t.Errorf("ReSC gamma PSNR = %.1f dB, want >= 22", psnr)
	}
	if mae := MeanAbsoluteError(exact, got); mae > 8 {
		t.Errorf("ReSC gamma MAE = %.2f levels", mae)
	}
}

func TestGammaOpticalQuality(t *testing.T) {
	src := Gradient(128, 2)
	exact := GammaExact(src, 0.45)
	got, err := GammaOptical(context.Background(), engine.WordParallel, src, 0.45, 6, 0.3, 4096, 12)
	if err != nil {
		t.Fatal(err)
	}
	psnr := PSNR(exact, got)
	if psnr < 22 {
		t.Errorf("optical gamma PSNR = %.1f dB, want >= 22", psnr)
	}
}

func TestGammaOpticalMatchesReSC(t *testing.T) {
	// The optical unit must not be meaningfully worse than the
	// electronic baseline at the same stream length.
	src := Gradient(64, 2)
	exact := GammaExact(src, 0.45)
	ele, err := GammaReSC(context.Background(), engine.WordParallel, src, 0.45, 6, 2048, 21)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := GammaOptical(context.Background(), engine.WordParallel, src, 0.45, 6, 0.3, 2048, 22)
	if err != nil {
		t.Fatal(err)
	}
	pe, po := PSNR(exact, ele), PSNR(exact, opt)
	if po < pe-6 {
		t.Errorf("optical PSNR %.1f far below electronic %.1f", po, pe)
	}
}

func TestGammaErrors(t *testing.T) {
	src := Gradient(8, 2)
	if _, err := GammaReSC(context.Background(), engine.WordParallel, src, -1, 6, 64, 1); err == nil {
		t.Error("negative gamma accepted")
	}
	if _, err := GammaOptical(context.Background(), engine.WordParallel, src, 0.45, 6, 0.001, 64, 1); err == nil {
		t.Error("infeasible spacing accepted")
	}
}

func TestPSNRProperties(t *testing.T) {
	a := Gradient(16, 16)
	if got := PSNR(a, a); !math.IsInf(got, 1) {
		t.Errorf("self PSNR = %g", got)
	}
	b := a.Clone()
	b.Pix[0] ^= 0xFF
	if got := PSNR(a, b); got <= 0 || math.IsInf(got, 1) {
		t.Errorf("perturbed PSNR = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	PSNR(a, NewGray(2, 2))
}
