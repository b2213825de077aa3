package stochastic

import (
	"fmt"
	"math"
	"math/bits"
)

// Plane kernels: word-level gate primitives over caller-owned scratch.
//
// A *plane* is a packed bit-stream held in a plain []uint64, LSB-first
// within each word exactly like Bitstream's backing words, but with no
// header and no per-call allocation: tiled engines (internal/image)
// allocate a few planes per worker and stream millions of pixels
// through them. (Not to be confused with AddPlane/PlaneEquals above,
// whose "planes" are the bit-planes of a carry-save counter.)
//
// All fill kernels write exactly WordsFor(n) words and leave bits past
// n clear, so the combinators below need no tail masking except after
// complement; PlaneOnes can then popcount whole words.

// WordsFor returns the number of 64-bit words covering n bits.
func WordsFor(n int) int { return (n + 63) / 64 }

// probThreshold maps a probability to the integer comparator threshold
// of the SplitMix64 word kernels: Next() < p compares k/2^53 against p
// with k = NextUint64()>>11; both k/2^53 and p·2^53 are exact
// (power-of-two scaling), so k < ceil(p·2^53) is the same predicate
// with the per-sample int→float conversion dropped. The degenerate
// probabilities clamp to the never/always thresholds, and a NaN, which
// no draw falls below, maps to never, so no NaN reaches the
// float-to-integer conversion, whose result the Go spec leaves to the
// platform.
func probThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

func checkPlane(name string, p []uint64, words int) {
	if len(p) < words {
		panic(fmt.Sprintf("stochastic: plane %s holds %d words, need %d", name, len(p), words))
	}
}

// planeWordBits returns how many of word w's bits are in range for an
// n-bit stream.
func planeWordBits(n, w int) int {
	if rem := n - w*64; rem < 64 {
		return rem
	}
	return 64
}

// FillPlane fills dst with an n-bit Bernoulli(p) stream drawn from
// src, consuming the source exactly as SNG.Generate would — the two
// produce identical bits from equal sources.
func FillPlane(src *SplitMix64, p float64, n int, dst []uint64) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	for w := 0; w < words; w++ {
		dst[w] = bernoulliWord(src, p, planeWordBits(n, w))
	}
}

// FillAbsDiffPlane fills dst with the n-bit absolute-difference
// stream |a−b|: each clock draws ONE shared uniform sample and sets
// the bit iff it falls between the two thresholds. That is the XOR of
// two maximally correlated streams of values a and b, fused so the
// pair never materializes; the tests keep the unfused pair
// (FillCorrelatedPlanes) as its oracle. Tiled engines use this for the
// XOR-as-absolute-difference gate. One sample is consumed per bit even
// for degenerate probabilities, since the draw is shared.
func FillAbsDiffPlane(src *SplitMix64, a, b float64, n int, dst []uint64) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	// Integer-domain compare (see probThreshold) with a branchless
	// band test: k and thr both sit far below 2^63, so k < thr iff
	// k−thr wraps, i.e. bit 63 of the difference, and the XOR of the
	// two wrap indicators is 1 iff k lands between the thresholds.
	// Stochastic bits are maximally unpredictable, so a branch per
	// comparator would mispredict half the time. Bits shift in at the
	// top and the partial-word tail is realigned after the loop. The
	// generator advances in a local copy that is stored back once: a
	// store through src on every draw would bounce src's cache line
	// between cores whenever two workers' generators share one, as the
	// 8-byte generators of RobertsCrossSCOn's per-worker scratch often
	// do.
	g := *src
	thrA, thrB := probThreshold(a), probThreshold(b)
	for w := 0; w < words; w++ {
		nbits := planeWordBits(n, w)
		var wd uint64
		for t := 0; t < nbits; t++ {
			k := g.NextUint64() >> 11
			wd = wd>>1 | ((k-thrA)^(k-thrB))&(1<<63)
		}
		if nbits < 64 {
			wd >>= 64 - uint(nbits)
		}
		dst[w] = wd
	}
	*src = g
}

// MuxPlanes stores the 2:1 multiplex of a and b under sel into dst:
// output bit t is a's where sel is 0 and b's where sel is 1 — the
// scaled adder (ScaledAdd) on planes. dst may alias any input.
func MuxPlanes(dst, sel, a, b []uint64) {
	checkPlane("sel", sel, len(dst))
	checkPlane("a", a, len(dst))
	checkPlane("b", b, len(dst))
	for i := range dst {
		dst[i] = (a[i] &^ sel[i]) | (b[i] & sel[i])
	}
}

// PlaneOnes returns the number of set bits. With the zero-tail
// invariant maintained by the fill kernels, this is the
// stream's ones count; value = PlaneOnes(p)/n.
func PlaneOnes(p []uint64) int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}
