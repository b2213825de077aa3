package dse

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	img "repro/internal/image"
)

// EdgeStudyRow is one stream length of the image-quality study: PSNR
// (and MAE for the edge detector) of the two canonical error-tolerant
// SC image workloads against their exact references.
type EdgeStudyRow struct {
	StreamLen int
	EdgePSNR  float64
	EdgeMAE   float64
	GammaPSNR float64
}

// EdgeStudy runs Robert's-cross edge detection (packed tiled engine,
// 64×64 checkerboard) and gamma correction (batched ReSC LUT, gamma
// 0.45 on a full-range gradient) at each stream length and reports the
// quality-vs-latency trade-off that frames the paper's application
// section: PSNR grows ~3 dB per stream-length doubling until
// quantization saturates.
//
// The lengths run in order, with ctx checked between them; each
// length's edge tiles and gamma levels dispatch on e, so the longest
// stream — most of the work — still spreads over the engine. Both
// kernels keep their own per-pixel and per-level derived seeds, so the
// table is identical on every engine. A nil engine is an error, and an
// interruption returns the context's error or the gamma batch's
// *engine.Partial.
func EdgeStudy(ctx context.Context, e engine.Engine, lengths []int, seed uint64) ([]EdgeStudyRow, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	edgeSrc := img.Checkerboard(64, 64, 8, 30, 220)
	edgeExact := img.RobertsCrossExact(edgeSrc)
	gammaSrc := img.Gradient(128, 4)
	gammaExact := img.GammaExact(gammaSrc, 0.45)
	rows := make([]EdgeStudyRow, len(lengths))
	for i, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		edge, err := img.RobertsCrossSCOn(e, edgeSrc, l, seed)
		if err != nil {
			return nil, err
		}
		gamma, err := img.GammaReSC(ctx, e, gammaSrc, 0.45, 6, l, seed)
		if err != nil {
			return nil, err
		}
		rows[i] = EdgeStudyRow{
			StreamLen: l,
			EdgePSNR:  img.PSNR(edgeExact, edge),
			EdgeMAE:   img.MeanAbsoluteError(edgeExact, edge),
			GammaPSNR: img.PSNR(gammaExact, gamma),
		}
	}
	return rows, nil
}

// RenderEdgeStudy writes the study table.
func RenderEdgeStudy(w io.Writer, rows []EdgeStudyRow) error {
	if _, err := fmt.Fprintln(w, "Image quality vs stream length (packed tiled engine, 64x64 edge / 128x4 gamma)"); err != nil {
		return err
	}
	t := NewTable("stream length", "edge PSNR (dB)", "edge MAE", "gamma PSNR (dB)")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprint(r.StreamLen),
			fmt.Sprintf("%.2f", r.EdgePSNR),
			fmt.Sprintf("%.2f", r.EdgeMAE),
			fmt.Sprintf("%.2f", r.GammaPSNR),
		)
	}
	return t.Render(w)
}
