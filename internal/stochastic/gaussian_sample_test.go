package stochastic

import (
	"math"
	"testing"
)

// TestGaussianFillMatchesNext: block generation must reproduce the
// per-sample sequence bit for bit, including across the Box–Muller
// pair boundary (odd fill sizes leave a spare behind).
func TestGaussianFillMatchesNext(t *testing.T) {
	for _, size := range []int{1, 2, 3, 64, 101} {
		ref := NewGaussian(NewSplitMix64(77))
		blk := NewGaussian(NewSplitMix64(77))
		dst := make([]float64, size)
		blk.Fill(dst)
		for i, got := range dst {
			if want := ref.Next(); got != want {
				t.Fatalf("size %d: sample %d = %v, want %v", size, i, got, want)
			}
		}
		// The spare state must match too: the next samples from both
		// generators stay in lockstep.
		for i := 0; i < 3; i++ {
			if got, want := blk.Next(), ref.Next(); got != want {
				t.Fatalf("size %d: post-fill sample %d = %v, want %v", size, i, got, want)
			}
		}
	}
}

// TestGaussianInterleavedSpare interleaves Next, NextScaled, Fill and
// FillScaled in awkward sizes against a pure-Next reference — the
// spare deviate must survive every hand-off.
func TestGaussianInterleavedSpare(t *testing.T) {
	ref := NewGaussian(NewSplitMix64(4242))
	g := NewGaussian(NewSplitMix64(4242))
	var got, want []float64

	take := func(n int) {
		for i := 0; i < n; i++ {
			want = append(want, ref.Next())
		}
	}

	got = append(got, g.Next())
	take(1)
	buf := make([]float64, 5) // starts on a pending spare
	g.Fill(buf)
	got = append(got, buf...)
	take(5)
	got = append(got, g.NextScaled(1))
	take(1)
	g.FillScaled(buf[:3], 1)
	got = append(got, buf[:3]...)
	take(3)
	g.Fill(buf[:0]) // empty fill is a no-op
	got = append(got, g.Next())
	take(1)

	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestGaussianFillScaled: FillScaled is sigma times the Fill
// sequence, exactly as NextScaled is sigma times Next.
func TestGaussianFillScaled(t *testing.T) {
	plain := NewGaussian(NewSplitMix64(9))
	scaled := NewGaussian(NewSplitMix64(9))
	a := make([]float64, 33)
	b := make([]float64, 33)
	plain.Fill(a)
	scaled.FillScaled(b, 2.5)
	for i := range a {
		if b[i] != a[i]*2.5 {
			t.Fatalf("sample %d: %v vs %v*2.5", i, b[i], a[i])
		}
	}
}

// TestGaussianFillMoments checks the block generator's first two
// moments — the distribution must survive the vectorized transform.
func TestGaussianFillMoments(t *testing.T) {
	g := NewGaussian(NewSplitMix64(321))
	const n = 1 << 17
	buf := make([]float64, 512)
	sum, sq := 0.0, 0.0
	for done := 0; done < n; done += len(buf) {
		g.Fill(buf)
		for _, v := range buf {
			sum += v
			sq += v * v
		}
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("fill mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("fill variance = %g", variance)
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewGaussian(NewSplitMix64(123))
	n := 1 << 17
	sum, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Next()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("gaussian mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("gaussian variance = %g", variance)
	}
	if v := g.NextScaled(3); math.Abs(v) > 30 {
		t.Errorf("scaled deviate %g implausible", v)
	}
}

func TestGaussianNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGaussian(nil) did not panic")
		}
	}()
	NewGaussian(nil)
}
