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
// used by the devirtualized SplitMix64 paths: Next() < p compares
// k/2^53 against p with k = NextUint64()>>11; both k/2^53 and p·2^53
// are exact (power-of-two scaling), so k < ceil(p·2^53) is the same
// predicate with the per-sample int→float conversion dropped. The
// degenerate probabilities clamp to the never/always thresholds.
func probThreshold(p float64) uint64 {
	if p <= 0 {
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
func FillPlane(src NumberSource, p float64, n int, dst []uint64) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	for w := 0; w < words; w++ {
		dst[w] = bernoulliWord(src, p, planeWordBits(n, w))
	}
}

// FillCorrelatedPlanes fills pa and pb with *maximally correlated*
// n-bit streams of values a and b: each clock draws ONE shared uniform
// sample and thresholds it against both probabilities, so the streams
// overlap as much as their values allow and XOR computes |a−b| exactly
// (the absolute-difference idiom of the edge-detection workload).
//
// Unlike FillPlane, one sample is consumed per bit even for degenerate
// probabilities — the draw is shared, so it cannot be skipped for one
// threshold only. This matches a serial loop that draws r once and
// sets bit i of pa iff r < a and of pb iff r < b.
func FillCorrelatedPlanes(src NumberSource, a, b float64, n int, pa, pb []uint64) {
	words := WordsFor(n)
	checkPlane("pa", pa, words)
	checkPlane("pb", pb, words)
	if sm, ok := src.(*SplitMix64); ok {
		// Devirtualized integer-domain fast path (see probThreshold),
		// with the comparisons made branchless: k and thr both sit
		// far below 2^63, so k < thr iff k−thr wraps, i.e. bit 63 of
		// the difference. Stochastic bits are maximally unpredictable
		// — a branch per comparator would mispredict half the time.
		thrA, thrB := probThreshold(a), probThreshold(b)
		for w := 0; w < words; w++ {
			nbits := planeWordBits(n, w)
			var wa, wb uint64
			for t := 0; t < nbits; t++ {
				k := sm.NextUint64() >> 11
				// LSB-first via shift-in at the top: the word ends
				// with clock t's bit at position t after nbits
				// right-shifts (the partial-word tail is realigned
				// below), with only constant shifts in the loop.
				wa = wa>>1 | (k-thrA)&(1<<63)
				wb = wb>>1 | (k-thrB)&(1<<63)
			}
			if nbits < 64 {
				wa >>= 64 - uint(nbits)
				wb >>= 64 - uint(nbits)
			}
			pa[w], pb[w] = wa, wb
		}
		return
	}
	for w := 0; w < words; w++ {
		nbits := planeWordBits(n, w)
		var wa, wb uint64
		for t := 0; t < nbits; t++ {
			r := src.Next()
			if r < a {
				wa |= 1 << uint(t)
			}
			if r < b {
				wb |= 1 << uint(t)
			}
		}
		pa[w], pb[w] = wa, wb
	}
}

// FillAbsDiffPlane fills dst with the n-bit absolute-difference
// stream |a−b|: exactly FillCorrelatedPlanes followed by XorPlanes of
// the pair, fused so the pair never materializes — bit t is set iff
// the shared draw falls between the two thresholds. Tiled engines use
// this for the XOR-as-absolute-difference gate; the unfused form
// remains for pipelines that need the pair itself.
func FillAbsDiffPlane(src NumberSource, a, b float64, n int, dst []uint64) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	if sm, ok := src.(*SplitMix64); ok {
		// Branchless band test (see FillCorrelatedPlanes): the XOR of
		// the two wrap indicators is 1 iff k lands between the
		// thresholds. The generator advances in a local copy that is
		// stored back once: a store through sm on every draw would
		// bounce sm's cache line between cores whenever two workers'
		// generators share one, as the 8-byte generators of
		// RobertsCrossSCOn's per-worker scratch often do.
		g := *sm
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
		*sm = g
		return
	}
	for w := 0; w < words; w++ {
		nbits := planeWordBits(n, w)
		var wd uint64
		for t := 0; t < nbits; t++ {
			r := src.Next()
			if (r < a) != (r < b) {
				wd |= 1 << uint(t)
			}
		}
		dst[w] = wd
	}
}

// XorPlanes stores a XOR b into dst word-at-a-time — the correlated
// absolute-difference gate (AbsDiffXOR) on planes. dst may alias a or
// b.
func XorPlanes(dst, a, b []uint64) {
	checkPlane("a", a, len(dst))
	checkPlane("b", b, len(dst))
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// AndPlanes stores a AND b into dst — the independent-stream
// multiplier (Multiply) on planes. dst may alias a or b.
func AndPlanes(dst, a, b []uint64) {
	checkPlane("a", a, len(dst))
	checkPlane("b", b, len(dst))
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
}

// NotPlanes stores the complement of a into dst — the 1−v gate
// (Complement) on planes. n is the stream length; bits past n are
// cleared so the zero-tail invariant survives complementing. dst may
// alias a.
func NotPlanes(dst, a []uint64, n int) {
	words := WordsFor(n)
	checkPlane("dst", dst, words)
	checkPlane("a", a, words)
	for i := 0; i < words; i++ {
		dst[i] = ^a[i]
	}
	if rem := uint(n % 64); rem != 0 && words > 0 {
		dst[words-1] &= (1 << rem) - 1
	}
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
// invariant maintained by the fill kernels and NotPlanes, this is the
// stream's ones count; value = PlaneOnes(p)/n.
func PlaneOnes(p []uint64) int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}
