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
// Stream lengths fan out on e under ctx (SweepCtx); each length's edge
// kernel runs on engine.Serial inside its item and keeps its own
// per-pixel derived seeds, so the table is identical on every engine.
func EdgeStudy(ctx context.Context, e engine.Engine, lengths []int, seed uint64) ([]EdgeStudyRow, error) {
	edgeSrc := img.Checkerboard(64, 64, 8, 30, 220)
	edgeExact := img.RobertsCrossExact(edgeSrc)
	gammaSrc := img.Gradient(128, 4)
	gammaExact := img.GammaExact(gammaSrc, 0.45)
	return SweepCtx(ctx, e, len(lengths), func(i int) (EdgeStudyRow, error) {
		l := lengths[i]
		edge, err := img.RobertsCrossSCOn(engine.Serial, edgeSrc, l, seed)
		if err != nil {
			return EdgeStudyRow{}, err
		}
		gamma, err := img.GammaReSC(gammaSrc, 0.45, 6, l, seed)
		if err != nil {
			return EdgeStudyRow{}, err
		}
		return EdgeStudyRow{
			StreamLen: l,
			EdgePSNR:  img.PSNR(edgeExact, edge),
			EdgeMAE:   img.MeanAbsoluteError(edgeExact, edge),
			GammaPSNR: img.PSNR(gammaExact, gamma),
		}, nil
	})
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
