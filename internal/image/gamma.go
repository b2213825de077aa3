package image

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

// GammaExact applies v' = 255·(v/255)^gamma per pixel — the reference
// result for PSNR.
func GammaExact(src *Gray, gamma float64) *Gray {
	out := src.Clone()
	var lut [256]uint8
	for v := 0; v < 256; v++ {
		lut[v] = quantize(math.Pow(float64(v)/255, gamma))
	}
	applyLUT(out, &lut)
	return out
}

// GammaReSC applies gamma correction through the electronic ReSC
// baseline: a degree-`degree` Bernstein approximation of x^gamma is
// evaluated stochastically with `streamLen`-bit streams, once per
// distinct gray level. The 256 levels are one batch
// (stochastic.EvaluateBatch) dispatched on e under ctx with per-level
// derived randomness, so the image is identical on every engine. A
// non-positive stream length is an error (it would silently produce a
// zero image), and a fired ctx returns the batch's *engine.Partial.
func GammaReSC(ctx context.Context, e engine.Engine, src *Gray, gamma float64, degree, streamLen int, seed uint64) (*Gray, error) {
	poly, _, err := stochastic.GammaCorrection(gamma, degree)
	if err != nil {
		return nil, err
	}
	if streamLen < 1 {
		return nil, fmt.Errorf("image: stream length %d, need >= 1", streamLen)
	}
	got, err := stochastic.EvaluateBatch(ctx, e, poly, grayLevels(), streamLen, seed)
	if err != nil {
		return nil, err
	}
	lut := quantizeLUT(got)
	out := src.Clone()
	applyLUT(out, &lut)
	return out, nil
}

// grayLevels returns the 256 normalized gray levels v/255.
func grayLevels() []float64 {
	xs := make([]float64, 256)
	for v := range xs {
		xs[v] = float64(v) / 255
	}
	return xs
}

// quantizeLUT quantizes 256 evaluated levels into a lookup table.
func quantizeLUT(levels []float64) (lut [256]uint8) {
	for v, got := range levels {
		lut[v] = quantize(got)
	}
	return lut
}

// GammaOptical applies gamma correction through the optical
// stochastic-computing unit: the same Bernstein polynomial evaluated
// by a circuit of matching order (designed by MRR-first at the given
// spacing). The 256 gray levels are one batch of the unit
// (core.Unit.EvaluateBatch) dispatched on e under ctx, each level
// with randomness derived from its index. A non-positive stream length
// is an error (it would silently produce a zero image), and a fired
// ctx returns the batch's *engine.Partial.
func GammaOptical(ctx context.Context, e engine.Engine, src *Gray, gamma float64, degree int, spacingNM float64, streamLen int, seed uint64) (*Gray, error) {
	poly, _, err := stochastic.GammaCorrection(gamma, degree)
	if err != nil {
		return nil, err
	}
	if streamLen < 1 {
		return nil, fmt.Errorf("image: stream length %d, need >= 1", streamLen)
	}
	lut, err := opticalLUT(ctx, e, poly, degree, spacingNM, streamLen, seed)
	if err != nil {
		return nil, err
	}
	out := src.Clone()
	applyLUT(out, &lut)
	return out, nil
}

// GammaDesign sizes the circuit an optical gamma LUT of the given
// degree runs on: the MRR-first design at the given channel spacing.
// Its error is the one GammaOptical and GammaLUTCache would fail with
// for that recipe — a degree above core.MaxOrder, a comb too wide for
// the filter's FSR, or an eye closed at that spacing. It takes
// microseconds, so a server can reject an infeasible recipe before it
// queues the build.
func GammaDesign(degree int, spacingNM float64) (core.Params, error) {
	return core.MRRFirst(core.MRRFirstSpec{Order: degree, WLSpacingNM: spacingNM})
}

// opticalLUT sizes a circuit of matching order at the given spacing
// and evaluates the 256 gray levels as one batch of the optical unit on
// e — the per-frame state GammaOptical builds and GammaLUTCache
// amortizes. The unit's batch randomness is (seed, level-index)-
// derived, so the table is a pure function of its arguments.
func opticalLUT(ctx context.Context, e engine.Engine, poly stochastic.BernsteinPoly, degree int, spacingNM float64, streamLen int, seed uint64) ([256]uint8, error) {
	p, err := GammaDesign(degree, spacingNM)
	if err != nil {
		return [256]uint8{}, err
	}
	c, err := core.NewCircuit(p)
	if err != nil {
		return [256]uint8{}, err
	}
	unit, err := core.NewUnit(c, poly, seed)
	if err != nil {
		return [256]uint8{}, err
	}
	got, err := unit.EvaluateBatch(ctx, e, grayLevels(), streamLen)
	if err != nil {
		return [256]uint8{}, err
	}
	return quantizeLUT(got), nil
}

// PSNR returns the peak signal-to-noise ratio between two images in
// dB (+Inf for identical images). It panics on dimension mismatch.
func PSNR(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("image: PSNR dimension mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// MeanAbsoluteError returns the mean absolute pixel difference.
func MeanAbsoluteError(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		panic("image: MAE dimension mismatch")
	}
	var s float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(a.Pix))
}

func quantize(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

func applyLUT(img *Gray, lut *[256]uint8) {
	for i, p := range img.Pix {
		img.Pix[i] = lut[p]
	}
}
