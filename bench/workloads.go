package main

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// request is one generated input: a POST to a service path with a JSON
// body. figures-all ops are requests too (path /v1/figures/<key>, empty
// body) so the traced replay can send them through the service.
type request struct {
	path string
	body string
	// exclusive requests are never in flight twice at once: a client
	// holding one makes the other client wait before sending its twin.
	exclusive bool
}

// workload is one set of inputs the benchmark runs, with the rules its
// output check and digest follow.
type workload struct {
	name string
	why  string
	// service workloads go over HTTP to an in-process server; the
	// others render figures in-process.
	service bool
	// period is the number of ops in one pass over the inputs: rounds
	// are aligned to it so each round holds the same op mix.
	period int
	// checkEvery selects the ops whose bodies are compared against the
	// serial oracle (every checkEvery-th index).
	checkEvery int
	// digestN bounds the indices outcome_sha256 covers: the checked
	// indices below digestN. Missing ones are requested after the timed
	// phase so the digest never depends on how far a run got.
	digestN int
	gen     func(seed uint64, i int) request
	// warmups are the set-up requests, one per endpoint shape, with
	// seeds outside the measured pool.
	warmups func(seed uint64) []request
	// knownFailure, when set, probes a failure the service is known to
	// have on inputs the measured mix avoids.
	knownFailure func(ctx context.Context, e *env) (knownFailure, error)
}

var workloads = []*workload{figuresAll, serveBER, serveImage, serveMix}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mix is SplitMix64's finalizer over (seed, stream, i): independent,
// well-spread values for every input index, so request i can be built
// without generating requests 0..i-1.
func mix(seed, stream uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// rng draws a sequence of values for one input index.
type rng struct {
	seed, stream uint64
	i, k         int
}

func newRNG(seed, stream uint64, i int) *rng { return &rng{seed: seed, stream: stream, i: i} }

func (r *rng) next() uint64 {
	r.k++
	return mix(r.seed^uint64(r.k)*0xD6E8FEB86659FD93, r.stream, r.i)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Service seeds: measured inputs draw from [1, 2^51], warm-ups from
// above 2^51, so no warm-up result is ever a measured cache hit.
func poolSeed(x uint64) uint64 { return 1 + x%(1<<51) }
func warmSeed(x uint64) uint64 { return 1<<51 + 1 + x%(1<<50) }

// figureKeys is the figure registry in presentation order; it is filled
// from the figures layer at start-up (layers.go).
var figureKeys = registryKeys()

var figuresAll = &workload{
	name:       "figures-all",
	why:        "the paper reproduction as oscbench -fig all runs it: every figure in-process, many small engine dispatches and the Fig. 5 analytic paths, no HTTP, no cache",
	period:     len(figureKeys),
	checkEvery: 1,
	digestN:    2 * len(figureKeys),
	gen: func(_ uint64, i int) request {
		return request{path: "/v1/figures/" + figureKeys[i%len(figureKeys)]}
	},
}

var serveBER = &workload{
	name:       "serve-ber",
	why:        "Monte-Carlo BER waterfalls over HTTP with unique seeds: Gaussian noise and threshold decisions dominate; bypasses the cache and the image kernels",
	service:    true,
	period:     1,
	checkEvery: 16,
	digestN:    512,
	gen: func(seed uint64, i int) request {
		return berRequest(100_000, poolSeed(mix(seed, 1, i)))
	},
	warmups: func(seed uint64) []request {
		return []request{berRequest(100_000, warmSeed(mix(seed, 101, 0)))}
	},
}

func berRequest(bits int, seed uint64) request {
	return request{path: "/v1/ber", body: fmt.Sprintf(`{"bits":%d,"seed":%d}`, bits, seed)}
}

// imageBlock is serve-image's pass: 36 edge and 36 gamma requests
// covering every (synth, size, stream length) slot, shuffled per pass,
// so every round holds the same work.
const imageBlock = 72

var serveImage = &workload{
	name:       "serve-image",
	why:        "gamma and edge requests over HTTP with unique seeds: bit-plane kernels, the gamma LUT build and base64 encoding, with no Gaussian noise and no cache hits",
	service:    true,
	period:     imageBlock,
	checkEvery: 16,
	digestN:    512,
	gen: func(seed uint64, i int) request {
		slot := blockSlot(seed, 2, i, imageBlock)
		op, synthIdx, size, lenIdx := slot/36, slot%36/12, slot%12/4, slot%4
		streamLen := []int{256, 1024, 256, 1024}[lenIdx]
		if size == 0 && lenIdx >= 2 {
			streamLen = 4096 // half of the 64x48 requests
		}
		format := "json"
		if (synthIdx+size+lenIdx)%4 == 0 {
			format = "pgm"
		}
		dims := [][2]int{{64, 48}, {96, 96}, {128, 128}}[size]
		if op == 0 {
			return imageRequest("edge", []string{"gradient", "radial", "checkerboard"}[synthIdx], dims[0], dims[1], streamLen, format, poolSeed(mix(seed, 2, i)))
		}
		// Gamma on a checkerboard can match the exact operator bit for
		// bit; the service then fails to encode PSNR=+Inf (HTTP 500).
		// That known failure is probed on its own (probeGammaInf),
		// so the measured mix sticks to sources that never match.
		synth := []string{"gradient", "radial"}[mix(seed, 5, i)%2]
		return imageRequest("gamma", synth, dims[0], dims[1], streamLen, format, poolSeed(mix(seed, 2, i)))
	},
	knownFailure: probeGammaInf,
	warmups: func(seed uint64) []request {
		var out []request
		for k, op := range []string{"edge", "gamma"} {
			for j, format := range []string{"json", "pgm"} {
				out = append(out, imageRequest(op, "radial", 64, 48, 256, format, warmSeed(mix(seed, 102, 2*k+j))))
			}
		}
		return out
	},
}

// blockSlot maps op i to its slot in a per-pass shuffle of n slots.
func blockSlot(seed, stream uint64, i, n int) int {
	perm := make([]int, n)
	for k := range perm {
		perm[k] = k
	}
	r := newRNG(seed, stream, i/n)
	for k := n - 1; k > 0; k-- {
		j := r.intn(k + 1)
		perm[k], perm[j] = perm[j], perm[k]
	}
	return perm[i%n]
}

func imageRequest(op, synth string, w, h, streamLen int, format string, seed uint64) request {
	return request{
		path: "/v1/image/" + op,
		body: fmt.Sprintf(`{"source":{"synth":%q,"width":%d,"height":%d},"stream_len":%d,"format":%q,"seed":%d}`,
			synth, w, h, streamLen, format, seed),
	}
}

// mixCheapFigures are the figure keys served in serve-mix: each renders
// in a few milliseconds, so the service layers carry the time.
var mixCheapFigures = []string{"5a", "5b", "5c", "6a", "6b", "6c", "7a", "7b", "summary", "trace"}

// Pool sizes per serve-mix request class, chosen so a Zipf(1.1)
// popularity over them gives the default 256-entry FIFO cache a hit
// ratio of 0.4-0.6 (pinned by TestServeMixHitRatio). The small yield
// pool warms the checkpoint directory within the first round.
const (
	mixPoolFigures = 3000
	mixPoolBER     = 8000
	mixPoolYield   = 100
	mixPoolEdge    = 6000
	mixZipfS       = 1.1
)

var (
	zipfFigures = newZipf(mixPoolFigures, mixZipfS)
	zipfBER     = newZipf(mixPoolBER, mixZipfS)
	zipfYield   = newZipf(mixPoolYield, mixZipfS)
	zipfEdge    = newZipf(mixPoolEdge, mixZipfS)
)

// mixBlock is serve-mix's pass: 6 figure, 5 BER, 5 yield and 4 edge
// requests (the 30/25/25/20 mix), shuffled per pass.
const mixBlock = 20

var serveMix = &workload{
	name:         "serve-mix",
	why:          "Zipf-popular figure, BER, yield and edge requests: routing, decoding, cache hits beside FIFO evictions, checkpoint writes and resumes carry the time",
	service:      true,
	period:       mixBlock,
	checkEvery:   16,
	digestN:      512,
	knownFailure: probeYieldRace,
	gen: func(seed uint64, i int) request {
		slot := blockSlot(seed, 4, i, mixBlock)
		u := newRNG(seed, 7, i).float()
		switch {
		case slot < 6:
			return mixFigure(zipfFigures.rank(u))
		case slot < 11:
			return berRequest(20_000, poolSeed(mix(seed, 11, zipfBER.rank(u))))
		case slot < 16:
			req := yieldRequest(100, poolSeed(mix(seed, 12, zipfYield.rank(u))))
			// Two identical checkpointed yields in flight at once race on
			// the snapshot's temp file (HTTP 500, probed on its own by
			// probeYieldRace); a client waits for its twin instead.
			req.exclusive = true
			return req
		default:
			return mixEdge(seed, zipfEdge.rank(u))
		}
	},
	warmups: func(seed uint64) []request {
		out := []request{
			berRequest(20_000, warmSeed(mix(seed, 111, 0))),
			yieldRequest(100, warmSeed(mix(seed, 112, 0))),
			imageRequest("edge", "radial", 64, 48, 256, "json", warmSeed(mix(seed, 113, 0))),
		}
		for _, key := range mixCheapFigures {
			// Grid 13 is outside the measured pool's 3..10 range.
			out = append(out, request{path: "/v1/figures/" + key, body: `{"grid":13}`})
		}
		return out
	},
}

// mixFigure is pool item k of serve-mix's figure class. Pool shapes do
// not depend on the seed, so every seed asks for the same work.
func mixFigure(k int) request {
	h := mix(0, 10, k)
	key := mixCheapFigures[h%uint64(len(mixCheapFigures))]
	return request{
		path: "/v1/figures/" + key,
		body: fmt.Sprintf(`{"grid":%d,"sweep":%d}`, 3+(h>>8)%8, 5+(h>>16)%12),
	}
}

// mixEdge is pool item k of serve-mix's edge class; like mixFigure, its
// shape does not depend on the seed.
func mixEdge(seed uint64, k int) request {
	h := mix(0, 14, k)
	synth := []string{"gradient", "radial", "checkerboard"}[h%3]
	return imageRequest("edge", synth, 64, 48, []int{256, 1024}[(h>>8)%2], "json", poolSeed(mix(seed, 13, k)))
}

func yieldRequest(samples int, seed uint64) request {
	return request{path: "/v1/yield", body: fmt.Sprintf(`{"samples":%d,"seed":%d}`, samples, seed)}
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s by
// inverting the CDF, so a rank is a pure function of one uniform.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
