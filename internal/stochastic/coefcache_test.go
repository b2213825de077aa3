package stochastic

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestGammaCoefCacheMatchesDirect: cache hits return the same fit the
// package-level GammaCorrection computes, errors included.
func TestGammaCoefCacheMatchesDirect(t *testing.T) {
	var c GammaCoefCache
	poly, maxErr, err := c.GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantPoly, wantMaxErr, err := GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(poly.Coef, wantPoly.Coef) || maxErr != wantMaxErr {
		t.Errorf("cached fit %v (%g) vs direct %v (%g)", poly, maxErr, wantPoly, wantMaxErr)
	}
	again, _, err := c.GammaCorrection(0.45, 6)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Coef[0] != &poly.Coef[0] {
		t.Error("repeated key re-ran the fit (coefficient slices differ)")
	}
	if _, _, err := c.GammaCorrection(-1, 6); err == nil {
		t.Error("invalid gamma accepted")
	}
	if _, _, err := c.GammaCorrection(-1, 6); err == nil {
		t.Error("cached error lost on repeat")
	}
}

// TestGammaCoefCacheConcurrent hammers one shared key, several
// distinct keys, a failing key and more keys than the bound from many
// goroutines — the cache must stay race-free (run under -race), agree
// with the direct fit and stay within its bound.
func TestGammaCoefCacheConcurrent(t *testing.T) {
	var c GammaCoefCache
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := c.GammaCorrection(0.45, 6); err != nil {
					t.Error(err)
				}
				if _, _, err := c.GammaCorrection(0.45, 2+g%3); err != nil {
					t.Error(err)
				}
				if _, _, err := c.GammaCorrection(-1, 2); err == nil {
					t.Error("invalid gamma accepted")
				}
			}
			for i := 0; i < gammaCoefCacheCap/4; i++ {
				if _, _, err := c.GammaCorrection(0.2+float64(g*gammaCoefCacheCap+i)/8192, 2); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(c.m) > gammaCoefCacheCap || len(c.fifo) != len(c.m) {
		t.Errorf("%d fits cached, %d queued: want equal and at most %d", len(c.m), len(c.fifo), gammaCoefCacheCap)
	}
}

// TestGammaCoefCacheBounded: more distinct gammas than the bound leave
// at most the bound cached, evicting the oldest first; an evicted fit
// rebuilds identical to the first; a failed fit leaves no entry, a NaN
// gamma's included.
func TestGammaCoefCacheBounded(t *testing.T) {
	var c GammaCoefCache
	first, _, err := c.GammaCorrection(0.45, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= gammaCoefCacheCap; i++ {
		if _, _, err := c.GammaCorrection(0.45+float64(i)/1024, 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.m) != gammaCoefCacheCap || len(c.fifo) != gammaCoefCacheCap {
		t.Fatalf("%d fits asked for: %d cached, %d queued, want the bound %d", gammaCoefCacheCap+1, len(c.m), len(c.fifo), gammaCoefCacheCap)
	}
	if _, ok := c.m[gammaCoefKey{gamma: 0.45, degree: 2}]; ok {
		t.Fatal("the oldest fit survived eviction")
	}
	again, _, err := c.GammaCorrection(0.45, 2)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Coef[0] == &first.Coef[0] || !reflect.DeepEqual(again.Coef, first.Coef) {
		t.Errorf("evicted fit rebuilt as %v (shared slice: %v), first fit %v", again.Coef, &again.Coef[0] == &first.Coef[0], first.Coef)
	}

	var failed GammaCoefCache
	for _, gamma := range []float64{-1, math.NaN(), math.NaN()} {
		if _, _, err := failed.GammaCorrection(gamma, 6); err == nil {
			t.Fatalf("invalid gamma %g accepted", gamma)
		}
	}
	if len(failed.m) != 0 || len(failed.fifo) != 0 {
		t.Errorf("failed fit left %d entries, %d queued", len(failed.m), len(failed.fifo))
	}
}
