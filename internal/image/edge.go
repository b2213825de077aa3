package image

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

// Edge detection is the second canonical error-tolerant image
// workload of the SC literature (alongside gamma correction): the
// Robert's-cross operator
//
//	E(x,y) = ½(|P(x,y) − P(x+1,y+1)| + |P(x+1,y) − P(x,y+1)|)
//
// maps onto two XOR gates and a multiplexer when the pixel streams
// share a randomness source: for *correlated* unipolar streams
// XOR computes the absolute difference exactly (see
// stochastic.FillAbsDiffPlane), and a ½-select MUX averages the two
// terms.

// RobertsCrossExact computes the operator in floating point.
func RobertsCrossExact(src *Gray) *Gray {
	out := NewGray(src.W, src.H)
	for y := 0; y < src.H-1; y++ {
		for x := 0; x < src.W-1; x++ {
			a := float64(src.At(x, y)) / 255
			b := float64(src.At(x+1, y+1)) / 255
			c := float64(src.At(x+1, y)) / 255
			d := float64(src.At(x, y+1)) / 255
			e := (math.Abs(a-b) + math.Abs(c-d)) / 2
			out.Set(x, y, quantize(e))
		}
	}
	return out
}

// selSalt decorrelates the shared averaging-select stream from the
// per-pixel difference streams derived from the same user seed.
const selSalt = 0xD1B54A32D192ED03

// pixelSeeds derives the two per-pixel randomness seeds (one per
// diagonal difference pair) through stochastic.DeriveSeed, so adjacent
// pixels get well-separated generator states rather than the weakly
// spaced states a linear seed+offset scheme would give.
func pixelSeeds(seed uint64, idx int) (uint64, uint64) {
	return stochastic.DeriveSeed(seed, 2*idx), stochastic.DeriveSeed(seed, 2*idx+1)
}

// edgeRowsPerTile is the tile height of the packed engine: tiles are
// bands of rows fanned out over the worker pool, coarse enough to
// amortize scheduling and fine enough to load-balance small images.
const edgeRowsPerTile = 8

// edgeScratch is one worker's reusable plane set: the two
// absolute-difference planes, the averaged output plane and a
// reseedable uniform source. One allocation per worker, zero per
// pixel.
type edgeScratch struct {
	d1, d2, e []uint64
	src       *stochastic.SplitMix64
}

func newEdgeScratch(words int) *edgeScratch {
	buf := make([]uint64, 3*words)
	return &edgeScratch{
		d1:  buf[0*words : 1*words],
		d2:  buf[1*words : 2*words],
		e:   buf[2*words : 3*words],
		src: stochastic.NewSplitMix64(0),
	}
}

// absDiffPlane fills dst with the |va−vb| stream of the correlated
// pixel pair (a, b) seeded by seed. Equal gray levels are elided:
// identically thresholded streams XOR to exactly zero, so flat
// diagonals — most of a natural image — cost no RNG draws, and the
// per-pixel source is discarded either way, so the elision is
// invisible to the oracle contract.
func (s *edgeScratch) absDiffPlane(dst []uint64, a, b uint8, seed uint64, streamLen int) {
	if a == b {
		clear(dst)
		return
	}
	s.src.Reseed(seed)
	stochastic.FillAbsDiffPlane(s.src, float64(a)/255, float64(b)/255, streamLen, dst)
}

// RobertsCrossSCOn computes the operator stochastically with
// `streamLen`-bit streams. Pixel streams within one 2×2 window share
// one randomness source (maximal correlation) so XOR realizes the
// absolute difference; the two difference streams and the averaging
// select stream are mutually independent.
//
// This is the packed tiled engine: row bands are independent work
// items dispatched on the given engine, and each worker streams its
// pixels through word-level plane kernels (stochastic.FillAbsDiffPlane
// / MuxPlanes) on reusable per-worker scratch — no per-pixel Bitstream
// allocations, and flat diagonal pairs elide their RNG draws entirely.
// Every pixel's randomness derives from its index alone (pixelSeeds),
// so the output is bit-identical on every conforming engine and
// deterministic on any GOMAXPROCS. A non-positive stream length is an
// error (it would silently produce a garbage image), as is a nil
// engine; a panicking tile comes back as its *engine.PanicError. The
// word-level kernels themselves are pinned against their bit-serial
// definitions by the stochastic package's plane tests.
func RobertsCrossSCOn(e engine.Engine, src *Gray, streamLen int, seed uint64) (*Gray, error) {
	if err := engine.Check(e); err != nil {
		return nil, err
	}
	if streamLen < 1 {
		return nil, fmt.Errorf("image: stream length %d, need >= 1", streamLen)
	}
	out := NewGray(src.W, src.H)
	rows, cols := src.H-1, src.W-1
	if rows < 1 || cols < 1 {
		return out, nil
	}
	words := stochastic.WordsFor(streamLen)
	sel := make([]uint64, words)
	stochastic.FillPlane(stochastic.NewSplitMix64(seed^selSalt), 0.5, streamLen, sel)
	tiles := (rows + edgeRowsPerTile - 1) / edgeRowsPerTile
	workers := e.Workers(tiles)
	scratch := make([]*edgeScratch, workers)
	// The signature takes no context yet (the benchmark pins it), so
	// the tiles run to completion.
	if err := e.ForWorkerCtx(context.TODO(), tiles, workers, func(worker, t int) {
		s := scratch[worker]
		if s == nil {
			s = newEdgeScratch(words)
			scratch[worker] = s
		}
		yEnd := (t + 1) * edgeRowsPerTile
		if yEnd > rows {
			yEnd = rows
		}
		for y := t * edgeRowsPerTile; y < yEnd; y++ {
			for x := 0; x < cols; x++ {
				s1, s2 := pixelSeeds(seed, y*src.W+x)
				s.absDiffPlane(s.d1, src.At(x, y), src.At(x+1, y+1), s1, streamLen)
				s.absDiffPlane(s.d2, src.At(x+1, y), src.At(x, y+1), s2, streamLen)
				stochastic.MuxPlanes(s.e, sel, s.d1, s.d2)
				ones := stochastic.PlaneOnes(s.e)
				out.Set(x, y, quantize(float64(ones)/float64(streamLen)))
			}
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}
