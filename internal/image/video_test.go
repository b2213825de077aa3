package image

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// videoFrames returns a small mixed-content frame batch.
func videoFrames() []*Gray {
	return []*Gray{
		Gradient(32, 24),
		Checkerboard(32, 24, 4, 40, 200),
		Radial(32, 24),
		Gradient(16, 16), // frame sizes may vary within a batch
	}
}

// TestGammaVideoDoesNotMutateInput: the batch clones each frame before
// applying the LUT.
func TestGammaVideoDoesNotMutateInput(t *testing.T) {
	frames := videoFrames()
	if _, err := GammaVideoCtx(context.Background(), engine.WordParallel, frames, 0.45, 6, 0.3, 256, 9, nil); err != nil {
		t.Fatal(err)
	}
	if frames[0].Pix[5] != Gradient(32, 24).Pix[5] {
		t.Error("GammaVideo mutated its input frame")
	}
}

// TestGammaVideoPerFrameCacheReplay: replaying a batch through the same
// cache hits every per-frame LUT already built — the returned tables
// are the same pointers, frame for frame.
func TestGammaVideoPerFrameCacheReplay(t *testing.T) {
	frames := videoFrames()
	var cache GammaLUTCache
	if _, err := GammaVideoPerFrameOn(engine.WordParallel, frames, 0.45, 6, 0.3, 256, 9, &cache); err != nil {
		t.Fatal(err)
	}
	l0, err := cache.OpticalLUT(0.45, 6, 0.3, 256, stochastic.DeriveSeed(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	l0again, err := cache.OpticalLUT(0.45, 6, 0.3, 256, stochastic.DeriveSeed(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if l0 != l0again {
		t.Error("replay rebuilt a frame LUT that should be cached")
	}
}

// TestGammaVideoPerFrameDecorrelation pins that the derived per-frame
// seeds actually decorrelate: two identical input frames at different
// indices come out with different noise patterns.
func TestGammaVideoPerFrameDecorrelation(t *testing.T) {
	// Same content, different frame index → different derived seed →
	// (deterministically) different quantization noise. A short stream
	// keeps the noise large enough to observe.
	twins := []*Gray{Gradient(32, 24), Gradient(32, 24)}
	out, err := GammaVideoPerFrameOn(engine.WordParallel, twins, 0.45, 6, 0.3, 32, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range out[0].Pix {
		if out[0].Pix[i] != out[1].Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("identical frames at different indices produced identical noise; per-frame seeds are not decorrelating")
	}
}

// TestGammaLUTCacheReuse: a shared cache returns the same table
// pointer across frames and batches (built once), for both backends,
// and the cached tables match the per-frame builders exactly.
func TestGammaLUTCacheReuse(t *testing.T) {
	var cache GammaLUTCache
	a, err := cache.OpticalLUT(0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.OpticalLUT(0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated optical recipe rebuilt its LUT")
	}
	other, err := cache.OpticalLUT(0.45, 6, 0.3, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("distinct recipes shared one cache entry")
	}
	r1, err := cache.ReSCLUT(0.45, 6, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cache.ReSCLUT(0.45, 6, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("repeated ReSC recipe rebuilt its LUT")
	}
	if *r1 == *a {
		t.Error("electronic and optical backends share a table but must be keyed apart")
	}

	// Cached tables reproduce the one-shot entry points bit-for-bit.
	src := Gradient(32, 8)
	viaCache := src.Clone()
	applyLUT(viaCache, a)
	direct, err := GammaOptical(src, 0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Pix {
		if direct.Pix[i] != viaCache.Pix[i] {
			t.Fatalf("pixel %d: GammaOptical %d vs cached LUT %d", i, direct.Pix[i], viaCache.Pix[i])
		}
	}
	viaCache = src.Clone()
	applyLUT(viaCache, r1)
	directReSC, err := GammaReSC(src, 0.45, 6, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range directReSC.Pix {
		if directReSC.Pix[i] != viaCache.Pix[i] {
			t.Fatalf("pixel %d: GammaReSC %d vs cached LUT %d", i, directReSC.Pix[i], viaCache.Pix[i])
		}
	}
}

func TestGammaVideoErrors(t *testing.T) {
	frames := []*Gray{Gradient(8, 8)}
	if _, err := GammaVideoCtx(context.Background(), engine.WordParallel, frames, 0.45, 6, 0.3, 0, 1, nil); err == nil {
		t.Error("zero stream length accepted")
	}
	if _, err := GammaVideoCtx(context.Background(), engine.WordParallel, frames, -1, 6, 0.3, 256, 1, nil); err == nil {
		t.Error("negative gamma accepted")
	}
	var cache GammaLUTCache
	if _, err := cache.ReSCLUT(0.45, 6, -2, 1); err == nil {
		t.Error("negative stream length accepted by ReSCLUT")
	}
	// An empty batch is not an error — there is just nothing to do.
	out, err := GammaVideoCtx(context.Background(), engine.WordParallel, nil, 0.45, 6, 0.3, 256, 1, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %d frames", err, len(out))
	}
}

// BenchmarkGammaVideo measures the cross-call amortization: the
// shared cache builds the gamma state once and replays the LUT across
// every iteration.
func BenchmarkGammaVideo(b *testing.B) {
	frames := []*Gray{Gradient(64, 64), Radial(64, 64), Checkerboard(64, 64, 8, 30, 220), Gradient(64, 64)}
	var cache GammaLUTCache
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GammaVideoCtx(context.Background(), engine.WordParallel, frames, 0.45, 6, 0.3, 1024, 3, &cache); err != nil {
			b.Fatal(err)
		}
	}
}
