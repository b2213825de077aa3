package main

// This file is the benchmark's only contact with the system under
// test: every import of a repro/internal package and every call into a
// layer's public API lives here, so renaming an entry point touches one
// benchmark file. The rest of the benchmark sees stacks, engine
// references and probes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/figures"
	img "repro/internal/image"
	"repro/internal/serve"
	"repro/internal/stochastic"
	"repro/internal/transient"
)

// engineRef is an evaluation engine as the rest of the benchmark holds
// it.
type engineRef struct{ e engine.Engine }

var (
	// prodEngine is what the measured system dispatches on.
	prodEngine = engineRef{engine.WordParallel}
	// oracleEngine is the in-order reference the outputs are checked
	// against.
	oracleEngine = engineRef{engine.Serial}
)

// setDefaultEngine replaces the process-default engine, which the
// figure renderers that ignore their configured engine dispatch on.
func setDefaultEngine(e engineRef) error { return engine.SetDefault(e.e) }

func registryKeys() []string { return figures.Keys() }

// renderFigure renders one registry figure with the default knobs, as
// oscbench -fig does.
func renderFigure(ctx context.Context, key string, e engineRef) ([]byte, error) {
	fig, ok := figures.Get(key)
	if !ok {
		return nil, fmt.Errorf("unknown figure %q", key)
	}
	cfg := figures.Defaults()
	cfg.Engine = e.e
	var out bytes.Buffer
	if err := fig.Render(ctx, &out, cfg); err != nil {
		return nil, fmt.Errorf("rendering %s: %w", key, err)
	}
	return out.Bytes(), nil
}

// stack is one in-process service instance.
type stack struct {
	srv *serve.Server
}

// newStack builds a service dispatching on e. cacheEntries follows
// serve.Config (0 = default, negative = off); ckptDir may be empty.
func newStack(e engineRef, cacheEntries int, ckptDir string) *stack {
	return &stack{srv: serve.New(serve.Config{Engine: e.e, CacheEntries: cacheEntries, CheckpointDir: ckptDir})}
}

func (s *stack) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.srv.ServeHTTP(w, r) }

// drain stops the service and waits for its jobs.
func (s *stack) drain() { s.srv.Drain(context.Background()) }

// healthSample is the part of /healthz the per-layer summary reads.
type healthSample struct {
	hits, misses   int64
	depth, running int
}

// health reads /healthz in process, without a client connection.
func (s *stack) health() (healthSample, error) {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body struct {
		Queue struct {
			Depth   int `json:"depth"`
			Running int `json:"running"`
		} `json:"queue"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return healthSample{}, fmt.Errorf("decoding /healthz: %w", err)
	}
	return healthSample{hits: body.Cache.Hits, misses: body.Cache.Misses, depth: body.Queue.Depth, running: body.Queue.Running}, nil
}

// tracer is the benchmark-side tracing engine: it delegates to
// WordParallel and records a dispatch span plus one span per item into
// the preallocated span buffer while tracing is on. It implements the
// context-aware interface too, so dispatch never falls back to the
// engine package's adapter.
type tracer struct {
	inner engine.CtxEngine
	buf   *spanBuf
}

func newTracer(buf *spanBuf) (*tracer, error) {
	inner, ok := engine.WordParallel.(engine.CtxEngine)
	if !ok {
		return nil, fmt.Errorf("engine %s is not context-aware", engine.WordParallel.Name())
	}
	return &tracer{inner: inner, buf: buf}, nil
}

func (t *tracer) ref() engineRef { return engineRef{t} }

func (t *tracer) Name() string { return "traced-" + t.inner.Name() }

func (t *tracer) Workers(n int) int { return t.inner.Workers(n) }

func (t *tracer) For(n int, fn func(i int)) {
	d, ok := t.buf.beginDispatch(context.Background(), n)
	if !ok {
		t.inner.For(n, fn)
		return
	}
	t.inner.For(n, func(i int) {
		s := t.buf.now()
		fn(i)
		d.item(i, s)
	})
	d.end()
}

func (t *tracer) ForWorker(n, workers int, fn func(worker, i int)) {
	d, ok := t.buf.beginDispatch(context.Background(), n)
	if !ok {
		t.inner.ForWorker(n, workers, fn)
		return
	}
	t.inner.ForWorker(n, workers, func(w, i int) {
		s := t.buf.now()
		fn(w, i)
		d.item(i, s)
	})
	d.end()
}

func (t *tracer) ForCtx(ctx context.Context, n int, fn func(i int)) error {
	d, ok := t.buf.beginDispatch(ctx, n)
	if !ok {
		return t.inner.ForCtx(ctx, n, fn)
	}
	err := t.inner.ForCtx(ctx, n, func(i int) {
		s := t.buf.now()
		fn(i)
		d.item(i, s)
	})
	d.end()
	return err
}

func (t *tracer) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	d, ok := t.buf.beginDispatch(ctx, n)
	if !ok {
		return t.inner.ForWorkerCtx(ctx, n, workers, fn)
	}
	err := t.inner.ForWorkerCtx(ctx, n, workers, func(w, i int) {
		s := t.buf.now()
		fn(w, i)
		d.item(i, s)
	})
	d.end()
	return err
}

// Probes: single calls into one layer at a given shape, timed by the
// caller's clock around them. Inputs are built outside the timed call.

// waterfallPowers are the probe powers /v1/ber sweeps by default: the
// paper circuit sized for BER 1e-1 .. 1e-4.
var waterfallPowers = sync.OnceValue(func() []float64 {
	c := core.MustCircuit(core.PaperParams())
	out := make([]float64, 4)
	for i, t := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		out[i] = c.MinProbePowerMW(t)
	}
	return out
})

// probeWaterfall times one BER waterfall over the default powers and
// reports how many bits it decided.
func probeWaterfall(bits int, seed uint64) (time.Duration, float64, error) {
	powers := waterfallPowers()
	t := time.Now()
	_, err := transient.BERWaterfallCtx(context.Background(), engine.WordParallel, core.PaperParams(), powers, bits, seed)
	return time.Since(t), float64(bits * len(powers)), err
}

// linkSim is the paper circuit sized for BER 1e-3 with a unit and a
// noisy simulator on it.
func linkSim(seed uint64) (*core.Unit, *transient.Simulator, error) {
	p := core.PaperParams()
	p.ProbePowerMW = core.MustCircuit(p).MinProbePowerMW(1e-3)
	c, err := core.NewCircuit(p)
	if err != nil {
		return nil, nil, err
	}
	coef := make([]float64, p.Order+1)
	for i := range coef {
		coef[i] = float64(i+1) / float64(p.Order+2)
	}
	u, err := core.NewUnit(c, stochastic.NewBernstein(coef), seed)
	if err != nil {
		return nil, nil, err
	}
	return u, transient.NewSimulator(u, seed), nil
}

// probeWorstCaseBER times MeasureWorstCaseBER over bits slots.
func probeWorstCaseBER(bits int, seed uint64) (time.Duration, error) {
	_, sim, err := linkSim(seed)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	_, err = sim.MeasureWorstCaseBER(bits)
	return time.Since(t), err
}

// probeEvaluateNoisy times one bits-cycle noisy evaluation of the unit.
func probeEvaluateNoisy(bits int, seed uint64) (time.Duration, error) {
	u, sim, err := linkSim(seed)
	if err != nil {
		return 0, err
	}
	g := stochastic.NewGaussian(stochastic.NewSplitMix64(seed))
	sigma := sim.SigmaMW
	t := time.Now()
	_, err = u.EvaluateNoisy(0.5, bits, func(dst []float64) { g.FillScaled(dst, sigma) })
	return time.Since(t), err
}

// probeCircuitBuild times NewCircuit plus its power table, which every
// waterfall point rebuilds.
func probeCircuitBuild() (time.Duration, error) {
	p := core.PaperParams()
	t := time.Now()
	c, err := core.NewCircuit(p)
	if err != nil {
		return 0, err
	}
	if c.PowerTable() == nil {
		return 0, fmt.Errorf("order %d has no power table", p.Order)
	}
	return time.Since(t), nil
}

// probeGaussianFill times n samples of block Gaussian generation in
// the 64-sample blocks the noisy evaluators request.
func probeGaussianFill(n int, seed uint64) time.Duration {
	g := stochastic.NewGaussian(stochastic.NewSplitMix64(seed))
	var block [64]float64
	t := time.Now()
	for k := 0; k < n; k += len(block) {
		g.Fill(block[:min(len(block), n-k)])
	}
	return time.Since(t)
}

// synthImage builds a synthetic source with the service's checkerboard
// defaults.
func synthImage(synth string, w, h int) (*img.Gray, error) {
	switch synth {
	case "gradient":
		return img.Gradient(w, h), nil
	case "radial":
		return img.Radial(w, h), nil
	case "checkerboard":
		return img.Checkerboard(w, h, 6, 40, 210), nil
	}
	return nil, fmt.Errorf("unknown synth %q", synth)
}

// probeEdge times one stochastic Roberts-cross pass over a synthetic
// source.
func probeEdge(synth string, w, h, streamLen int, seed uint64) (time.Duration, error) {
	src, err := synthImage(synth, w, h)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	_, err = img.RobertsCrossSCOn(engine.WordParallel, src, streamLen, seed)
	return time.Since(t), err
}

// probeGamma times gamma correction of a synthetic source with the
// service's default recipe twice on one LUT cache: cold (LUT built) and
// warm (LUT reused).
func probeGamma(synth string, w, h, streamLen int, seed uint64) (cold, warm time.Duration, err error) {
	src, err := synthImage(synth, w, h)
	if err != nil {
		return 0, 0, err
	}
	var cache img.GammaLUTCache
	frames := []*img.Gray{src}
	for k, d := range []*time.Duration{&cold, &warm} {
		t := time.Now()
		if _, err := img.GammaVideoCtx(context.Background(), engine.WordParallel, frames, 0.45, 6, 0.3, streamLen, seed, &cache); err != nil {
			return 0, 0, fmt.Errorf("gamma pass %d: %w", k, err)
		}
		*d = time.Since(t)
	}
	return cold, warm, nil
}

// planeTimes are the bit-plane kernel timings of probePlanes: reps
// calls each on words-word planes.
type planeTimes struct {
	absDiff, popcount, sng time.Duration
	words                  int
}

func probePlanes(streamLen, reps int, seed uint64) planeTimes {
	src := stochastic.NewSplitMix64(seed)
	dst := make([]uint64, stochastic.WordsFor(streamLen))
	var out planeTimes
	out.words = len(dst)
	t := time.Now()
	for k := 0; k < reps; k++ {
		stochastic.FillAbsDiffPlane(src, 0.3, 0.7, streamLen, dst)
	}
	out.absDiff = time.Since(t)
	ones := 0
	t = time.Now()
	for k := 0; k < reps; k++ {
		ones += stochastic.PlaneOnes(dst)
	}
	out.popcount = time.Since(t)
	t = time.Now()
	for k := 0; k < reps; k++ {
		stochastic.FillPlane(src, 0.5, streamLen, dst)
	}
	out.sng = time.Since(t)
	popcountSink = ones
	return out
}

// popcountSink keeps the popcount loop's result observable.
var popcountSink int

// yieldStudy is the /v1/yield study shape for a die count and seed.
func yieldStudy(samples int, seed uint64) dse.YieldStudy {
	s := figures.YieldStudySpec(samples)
	s.Seed = seed
	return s
}

// probeYield times a whole yield study and reports its die count.
func probeYield(samples int, seed uint64) (time.Duration, int, error) {
	s := yieldStudy(samples, seed)
	t := time.Now()
	_, err := s.RunCtx(context.Background(), engine.WordParallel)
	return time.Since(t), s.N(), err
}

// probeCheckpoint runs a yield study into a checkpoint file in dir,
// then times reps snapshot saves and reps fresh loads of it.
func probeCheckpoint(dir string, samples, reps int, seed uint64) (save, load []time.Duration, err error) {
	s := yieldStudy(samples, seed)
	path := filepath.Join(dir, "probe-checkpoint.json")
	cp := dse.NewCheckpointer[core.DieOutcome](path, 0, s.Key())
	if _, err := s.RunCheckpointed(context.Background(), engine.WordParallel, cp); err != nil {
		return nil, nil, err
	}
	for k := 0; k < reps; k++ {
		t := time.Now()
		if err := cp.Save(); err != nil {
			return nil, nil, err
		}
		save = append(save, time.Since(t))
		t = time.Now()
		n, err := dse.NewCheckpointer[core.DieOutcome](path, 0, s.Key()).Load()
		if err != nil {
			return nil, nil, err
		}
		if n != s.N() {
			return nil, nil, fmt.Errorf("checkpoint restored %d of %d dies", n, s.N())
		}
		load = append(load, time.Since(t))
	}
	return save, load, nil
}

// probeDispatch times one WordParallel dispatch of n empty items.
func probeDispatch(n int) (time.Duration, error) {
	t := time.Now()
	err := engine.ForCtx(context.Background(), engine.WordParallel, n, func(int) {})
	return time.Since(t), err
}
