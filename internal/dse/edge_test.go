package dse

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestEdgeStudyQualityGrowsWithLength(t *testing.T) {
	rows, err := EdgeStudy(context.Background(), engine.WordParallel, []int{64, 1024}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	long, short := rows[1], rows[0]
	if long.EdgePSNR <= short.EdgePSNR {
		t.Errorf("edge PSNR did not improve: %.2f -> %.2f dB", short.EdgePSNR, long.EdgePSNR)
	}
	if long.GammaPSNR <= short.GammaPSNR {
		t.Errorf("gamma PSNR did not improve: %.2f -> %.2f dB", short.GammaPSNR, long.GammaPSNR)
	}
	if long.EdgeMAE >= short.EdgeMAE {
		t.Errorf("edge MAE did not shrink: %.2f -> %.2f", short.EdgeMAE, long.EdgeMAE)
	}
	// 1024-bit streams resolve the checkerboard essentially exactly.
	if long.EdgePSNR < 30 {
		t.Errorf("1024-bit edge PSNR = %.2f dB", long.EdgePSNR)
	}
}

func TestEdgeStudyErrors(t *testing.T) {
	if _, err := EdgeStudy(context.Background(), engine.WordParallel, []int{64, 0}, 1); err == nil {
		t.Error("non-positive stream length accepted")
	}
}

func TestRenderEdgeStudy(t *testing.T) {
	rows, err := EdgeStudy(context.Background(), engine.WordParallel, []int{128}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderEdgeStudy(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stream length", "edge PSNR", "gamma PSNR", "128"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
