package image

import (
	"context"
	"errors"
	"sync"
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

// TestGammaLUTCacheReuse: a shared cache returns the same table
// pointer across frames and batches (built once), and the cached table
// matches the per-frame GammaOptical build exactly.
func TestGammaLUTCacheReuse(t *testing.T) {
	ctx := context.Background()
	var cache GammaLUTCache
	a, err := cache.OpticalLUT(ctx, engine.WordParallel, 0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.OpticalLUT(ctx, engine.Serial, 0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated optical recipe rebuilt its LUT")
	}
	other, err := cache.OpticalLUT(ctx, engine.WordParallel, 0.45, 6, 0.3, 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("distinct recipes shared one cache entry")
	}

	// The cached table reproduces the one-shot entry point bit-for-bit.
	src := Gradient(32, 8)
	viaCache := src.Clone()
	applyLUT(viaCache, a)
	direct, err := GammaOptical(ctx, engine.WordParallel, src, 0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Pix {
		if direct.Pix[i] != viaCache.Pix[i] {
			t.Fatalf("pixel %d: GammaOptical %d vs cached LUT %d", i, direct.Pix[i], viaCache.Pix[i])
		}
	}
}

// TestGammaLUTCacheSkipsFailedBuild: a build interrupted by its
// caller's ctx returns the context error and leaves no entry, nor does
// a recipe with no feasible design, so the next caller on the same
// cache builds GammaOptical's table.
func TestGammaLUTCacheSkipsFailedBuild(t *testing.T) {
	var cache GammaLUTCache
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.OpticalLUT(dead, engine.WordParallel, 0.45, 6, 0.3, 256, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	if _, err := cache.OpticalLUT(context.Background(), engine.WordParallel, 0.45, 17, 0.3, 256, 9); err == nil {
		t.Fatal("degree 17 at 0.3 nm built a table; its comb overflows the filter FSR")
	}
	if len(cache.m) != 0 || len(cache.fifo) != 0 {
		t.Fatalf("failed builds left %d map and %d FIFO entries", len(cache.m), len(cache.fifo))
	}
	lut, err := cache.OpticalLUT(context.Background(), engine.WordParallel, 0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatalf("build after a cancelled one: %v", err)
	}
	src := Gradient(256, 1)
	want, err := GammaOptical(context.Background(), engine.Serial, src, 0.45, 6, 0.3, 256, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Pix {
		if lut[v] != want.Pix[v] {
			t.Fatalf("level %d: cached %d vs GammaOptical %d", v, lut[v], want.Pix[v])
		}
	}
}

// TestGammaLUTCacheBounded: more distinct recipes than the bound
// leave at most the bound cached, the oldest evicted first, and the
// evicted recipe rebuilds the table it had.
func TestGammaLUTCacheBounded(t *testing.T) {
	ctx := context.Background()
	var cache GammaLUTCache
	first, err := cache.OpticalLUT(ctx, engine.WordParallel, 0.45, 2, 0.3, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := *first
	for seed := uint64(1); seed <= gammaLUTCacheCap+10; seed++ {
		if _, err := cache.OpticalLUT(ctx, engine.WordParallel, 0.45, 2, 0.3, 16, seed); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.m) > gammaLUTCacheCap || len(cache.fifo) != len(cache.m) {
		t.Fatalf("%d recipes cached (%d in the FIFO), bound %d", len(cache.m), len(cache.fifo), gammaLUTCacheCap)
	}
	if _, ok := cache.m[gammaLUTKey{gamma: 0.45, degree: 2, spacingNM: 0.3, streamLen: 16, seed: 0}]; ok {
		t.Fatal("the oldest recipe survived eviction")
	}
	again, err := cache.OpticalLUT(ctx, engine.Serial, 0.45, 2, 0.3, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *again != want {
		t.Errorf("evicted recipe rebuilt a different table:\n%v\nvs\n%v", *again, want)
	}
}

// TestGammaLUTCacheConcurrent: goroutines sharing one cache across
// more recipes than its bound, a fifth of their calls already
// cancelled, each get the uncached table or the cancellation, and
// leave the map and the FIFO in step within the bound. Under
// `go test -race` it is also a data-race check.
func TestGammaLUTCacheConcurrent(t *testing.T) {
	const recipes = gammaLUTCacheCap + 40
	poly, _, err := stochastic.GammaCorrection(0.45, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][256]uint8, recipes)
	for seed := range want {
		if want[seed], err = opticalLUT(context.Background(), engine.Serial, poly, 2, 0.3, 4, uint64(seed)); err != nil {
			t.Fatal(err)
		}
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var cache GammaLUTCache
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range recipes {
				seed := (i*7 + g*13) % recipes
				ctx := context.Background()
				if (i+g)%5 == 0 {
					ctx = dead
				}
				lut, err := cache.OpticalLUT(ctx, engine.Serial, 0.45, 2, 0.3, 4, uint64(seed))
				switch {
				case err != nil && (ctx != dead || !errors.Is(err, context.Canceled)):
					t.Errorf("seed %d: %v", seed, err)
				case err == nil && *lut != want[seed]:
					t.Errorf("seed %d: cached table differs from an uncached build", seed)
				}
			}
		}()
	}
	wg.Wait()
	if len(cache.m) > gammaLUTCacheCap || len(cache.fifo) != len(cache.m) {
		t.Fatalf("%d recipes cached, %d in the FIFO, bound %d", len(cache.m), len(cache.fifo), gammaLUTCacheCap)
	}
	for _, ent := range cache.fifo {
		if cache.m[ent.key] != ent {
			t.Fatalf("FIFO entry %+v is not the map's", ent.key)
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
	if _, err := cache.OpticalLUT(context.Background(), engine.WordParallel, 0.45, 6, 0.3, -2, 1); err == nil {
		t.Error("negative stream length accepted by OpticalLUT")
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
