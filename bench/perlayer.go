package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// perLayerDefs are the metrics a traced run reports for every
// workload, in report order. Each layer's numbers come from the spans
// of the timed phase where the workload reaches the layer, and from
// direct replays at the workload's shapes otherwise.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"serve.handler_ms_p50", "ms", "lower"},
		{"serve.handler_ms_p99", "ms", "lower"},
		{"serve.self_ms_mean", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.queue_depth_mean", "count", "lower"},
		{"serve.resp_kb_mean", "KB", "lower"},
		{"net.client_overhead_ms", "ms", "lower"},
		{"engine.dispatches_per_op", "count", "lower"},
		{"engine.items_per_op", "count", "lower"},
		{"engine.item_ms_p50", "ms", "lower"},
		{"engine.item_ms_p99", "ms", "lower"},
		{"engine.busy_frac", "ratio", "higher"},
		{"engine.dispatch_overhead_us", "us", "lower"},
	}
	for _, key := range figureKeys {
		defs = append(defs, metricDef{"figures." + key + "_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"transient.ber_waterfall_ms", "ms", "lower"},
		metricDef{"transient.ber_ns_per_bit", "ns", "lower"},
		metricDef{"transient.measure_worst_case_ber_ns_per_bit", "ns", "lower"},
		metricDef{"core.evaluate_noisy_ns_per_bit", "ns", "lower"},
		metricDef{"core.circuit_build_us", "us", "lower"},
		metricDef{"stochastic.gaussian_fill_ns_per_sample", "ns", "lower"},
		metricDef{"image.edge_ns_per_pixel_bit", "ns", "lower"},
		metricDef{"image.gamma_ms_cold", "ms", "lower"},
		metricDef{"image.gamma_ms_warm", "ms", "lower"},
		metricDef{"stochastic.plane_absdiff_ns_per_word", "ns", "lower"},
		metricDef{"stochastic.popcount_ns_per_word", "ns", "lower"},
		metricDef{"stochastic.sng_ns_per_word", "ns", "lower"},
		metricDef{"dse.die_us", "us", "lower"},
		metricDef{"dse.checkpoint_save_ms", "ms", "lower"},
		metricDef{"dse.checkpoint_load_ms", "ms", "lower"},
		metricDef{"trace_overhead_pct", "%", "lower"},
	)
}

// traceSlices is how many equal slices the traced timed phase is cut
// into. tracedSlice marks those that record spans: after an untraced
// first slice (warm-up, left out of the overhead) they alternate in
// on-off-off-on pairs, so a steady drift in speed over the run weighs
// on both sides equally.
const traceSlices = 9

var tracedSlice = [traceSlices]bool{false, true, false, false, true, true, false, false, true}

// replaySamples is how many generated inputs per workload are replayed
// directly through their layer's function.
const replaySamples = 50

// tracedPhase runs beside a traced timed phase: it toggles tracing per
// slice and samples /healthz every 50 ms.
type tracedPhase struct {
	e      *env
	start  time.Time
	d      time.Duration
	cancel context.CancelFunc
	wg     sync.WaitGroup
	health []healthSample
	err    error
}

func startTracedPhase(ctx context.Context, e *env, start time.Time, d time.Duration) *tracedPhase {
	ctx, cancel := context.WithCancel(ctx)
	p := &tracedPhase{e: e, start: start, d: d, cancel: cancel}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			k := int(time.Since(start) * traceSlices / d)
			e.buf.on.Store(k < traceSlices && tracedSlice[k])
			if e.stack != nil {
				h, err := e.stack.health()
				if err != nil && p.err == nil {
					p.err = err
				}
				p.health = append(p.health, h)
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the sampler and turns tracing off.
func (p *tracedPhase) stop() {
	p.cancel()
	p.wg.Wait()
	p.e.buf.on.Store(false)
}

// window returns slice k of the phase in span-epoch nanoseconds.
func (p *tracedPhase) window(k int) window {
	off := int64(p.start.Sub(p.e.buf.epoch))
	return window{off + int64(p.d)*int64(k)/traceSlices, off + int64(p.d)*int64(k+1)/traceSlices}
}

// sliceOf returns which slice an op (timed relative to p.start) ended
// in, clamped to the last.
func (p *tracedPhase) sliceOf(op opResult) int {
	return min(int(op.end*traceSlices/p.d), traceSlices-1)
}

// layerValues accumulates per-layer samples by metric name; a metric
// reports their median (one sample where the value is already a mean
// or a percentile).
type layerValues map[string][]float64

func (v layerValues) add(name string, x float64) { v[name] = append(v[name], x) }

// perLayer derives every per-layer metric for the traced run.
func (p *tracedPhase) perLayer(ctx context.Context, o options, ops []opResult) ([]metricValue, error) {
	if p.err != nil {
		return nil, p.err
	}
	e, w := p.e, p.e.w
	spans := e.buf.recorded()
	v := layerValues{}

	// Tracing overhead: interleaved off/on slice throughputs.
	perSlice := make([]float64, traceSlices)
	for _, op := range ops {
		perSlice[p.sliceOf(op)]++
	}
	var off, on []float64
	var onWins []window
	onOps := 0
	for k := 1; k < traceSlices; k++ {
		tput := perSlice[k] / (p.d.Seconds() / traceSlices)
		if tracedSlice[k] {
			on = append(on, tput)
			onWins = append(onWins, p.window(k))
			onOps += int(perSlice[k])
		} else {
			off = append(off, tput)
		}
	}
	v.add("trace_overhead_pct", (median(off)/median(on)-1)*100)

	// Engine spans of the traced slices.
	eng := summarizeEngine(spans, onWins)
	onWall := float64(p.d) * float64(len(onWins)) / traceSlices
	v.add("engine.dispatches_per_op", float64(eng.dispatches)/float64(max(onOps, 1)))
	v.add("engine.items_per_op", float64(eng.items)/float64(max(onOps, 1)))
	sort.Float64s(eng.itemMS)
	v.add("engine.item_ms_p50", percentile(eng.itemMS, 50))
	v.add("engine.item_ms_p99", percentile(eng.itemMS, 99))
	v.add("engine.busy_frac", eng.itemBusyNS/(onWall*float64(runtime.GOMAXPROCS(0))))
	itemsPerDispatch := 1
	if eng.dispatches > 0 {
		itemsPerDispatch = max(1, eng.items/eng.dispatches)
	}
	for k := 0; k < 200; k++ {
		t, err := probeDispatch(itemsPerDispatch)
		if err != nil {
			return nil, err
		}
		v.add("engine.dispatch_overhead_us", float64(t)/1e3)
	}

	// Service layer: the timed phase's spans, or for figures-all a
	// replay of sampled renders through a traced, uncached service.
	var sv traceSummary
	var health []healthSample
	var respKB []float64
	if w.service {
		sv = summarizeServe(spans, window{0, int64(time.Since(e.buf.epoch))}, ops)
		health = p.health
		for _, op := range ops {
			respKB = append(respKB, float64(op.size)/1024)
		}
	} else {
		var err error
		if sv, health, respKB, err = replayFiguresOverHTTP(ctx, e); err != nil {
			return nil, err
		}
	}
	sort.Float64s(sv.handlerMS)
	v.add("serve.handler_ms_p50", percentile(sv.handlerMS, 50))
	v.add("serve.handler_ms_p99", percentile(sv.handlerMS, 99))
	v.add("serve.self_ms_mean", mean(sv.selfMS))
	v.add("net.client_overhead_ms", mean(sv.clientOverhead))
	v.add("serve.resp_kb_mean", mean(respKB))
	hits, misses := 0.0, 0.0
	if n := len(health); n > 0 {
		hits = float64(health[n-1].hits - health[0].hits)
		misses = float64(health[n-1].misses - health[0].misses)
	}
	v.add("serve.cache_hit_ratio", hits/max(hits+misses, 1))
	var depth []float64
	for _, h := range health {
		depth = append(depth, float64(h.depth+h.running))
	}
	v.add("serve.queue_depth_mean", mean(depth))

	// Figures: the mean of figures-all's timed renders per key, one
	// direct render per key otherwise.
	if !w.service {
		perKey := make([][]float64, len(figureKeys))
		for _, op := range ops {
			k := op.index % len(figureKeys)
			perKey[k] = append(perKey[k], float64(op.end-op.start)/1e6)
		}
		for k, key := range figureKeys {
			v.add("figures."+key+"_ms", mean(perKey[k]))
		}
	} else {
		for _, key := range figureKeys {
			t := time.Now()
			if _, err := renderFigure(ctx, key, prodEngine); err != nil {
				return nil, err
			}
			v.add("figures."+key+"_ms", float64(time.Since(t))/1e6)
		}
	}

	if err := replayLayers(ctx, o, w, v); err != nil {
		return nil, err
	}

	var out []metricValue
	for _, def := range perLayerDefs() {
		xs := v[def.name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("per-layer metric %s has no samples", def.name)
		}
		out = append(out, metricValue{def.name, def.unit, median(xs)})
	}
	return out, nil
}

// replayFiguresOverHTTP sends sampled figures-all renders through a
// traced, uncached service over loopback, one at a time, so the
// service-layer metrics exist for figures-all too.
func replayFiguresOverHTTP(ctx context.Context, e *env) (traceSummary, []healthSample, []float64, error) {
	st := newStack(e.eng, -1, "")
	srv := httptest.NewServer(traceHandler(e.buf, st))
	t := newHTTPTarget(srv.URL)
	defer func() { t.close(); srv.Close(); st.drain() }()
	lo := e.buf.now()
	e.buf.on.Store(true)
	var ops []opResult
	var respKB []float64
	var health []healthSample
	h0, err := st.health()
	if err != nil {
		return traceSummary{}, nil, nil, err
	}
	health = append(health, h0)
	t0 := time.Now()
	for k := 0; k < replaySamples; k++ {
		i := sampleIndex(k)
		s := time.Since(t0)
		status, _, size, err := t.do(ctx, 0, i, e.w.gen(e.seed, i), false)
		if err := expectOK(status, nil, size, err); err != nil {
			e.buf.on.Store(false)
			return traceSummary{}, nil, nil, fmt.Errorf("figure replay %d: %w", i, err)
		}
		ops = append(ops, opResult{index: i, start: s, end: time.Since(t0), status: status, size: size})
		respKB = append(respKB, float64(size)/1024)
		h, err := st.health()
		if err != nil {
			e.buf.on.Store(false)
			return traceSummary{}, nil, nil, err
		}
		health = append(health, h)
	}
	e.buf.on.Store(false)
	return summarizeServe(e.buf.recorded(), window{lo, e.buf.now()}, ops), health, respKB, nil
}

// sampleIndex is the k-th replayed input index: spread over the first
// few thousand ops, and covering every figure key.
func sampleIndex(k int) int { return k*37 + k%5 }

// reqFields are the request body fields the layer replay reads.
type reqFields struct {
	Bits      int    `json:"bits"`
	Seed      uint64 `json:"seed"`
	Samples   int    `json:"samples"`
	StreamLen int    `json:"stream_len"`
	Source    struct {
		Synth  string `json:"synth"`
		Width  int    `json:"width"`
		Height int    `json:"height"`
	} `json:"source"`
}

// Fallback shapes for layers a workload does not reach.
const (
	defaultBERBits      = 20_000
	defaultStreamLen    = 1024
	defaultYieldSamples = 100
)

// replayLayers times the layer functions directly on replaySamples of
// the workload's inputs, then the L0 kernels at the workload's shapes;
// layers the workload does not reach are timed at the default shapes.
func replayLayers(ctx context.Context, o options, w *workload, v layerValues) error {
	var bits, streamLens, yieldSamples []float64
	for k := 0; k < replaySamples; k++ {
		req := w.gen(o.seed, sampleIndex(k))
		var f reqFields
		if req.body != "" {
			if err := json.Unmarshal([]byte(req.body), &f); err != nil {
				return fmt.Errorf("replay input %s: %w", req.body, err)
			}
		}
		var err error
		switch {
		case req.path == "/v1/ber":
			bits = append(bits, float64(f.Bits))
			err = replayWaterfall(v, f.Bits, f.Seed)
		case req.path == "/v1/yield":
			yieldSamples = append(yieldSamples, float64(f.Samples))
			err = replayYield(v, f.Samples, f.Seed)
		case strings.HasPrefix(req.path, "/v1/image/"):
			streamLens = append(streamLens, float64(f.StreamLen))
			err = replayImage(v, strings.TrimPrefix(req.path, "/v1/image/"), f.Source.Synth, f.Source.Width, f.Source.Height, f.StreamLen, f.Seed)
		}
		if err != nil {
			return err
		}
	}
	for s := uint64(1); len(v["transient.ber_waterfall_ms"]) < 5; s++ {
		if err := replayWaterfall(v, defaultBERBits, s); err != nil {
			return err
		}
	}
	for s := uint64(1); len(v["dse.die_us"]) < 3; s++ {
		if err := replayYield(v, defaultYieldSamples, s); err != nil {
			return err
		}
	}
	for s := uint64(1); len(v["image.edge_ns_per_pixel_bit"]) < 5; s++ {
		if err := replayImage(v, "edge", "radial", 64, 48, defaultStreamLen, s); err != nil {
			return err
		}
	}
	for s := uint64(1); len(v["image.gamma_ms_cold"]) < 5; s++ {
		if err := replayImage(v, "gamma", "radial", 64, 48, defaultStreamLen, s); err != nil {
			return err
		}
	}

	nBits := shape(bits, defaultBERBits)
	for k := 0; k < 7; k++ {
		t, err := probeWorstCaseBER(nBits, uint64(k+1))
		if err != nil {
			return err
		}
		v.add("transient.measure_worst_case_ber_ns_per_bit", float64(t)/float64(nBits))
		if t, err = probeEvaluateNoisy(nBits, uint64(k+1)); err != nil {
			return err
		}
		v.add("core.evaluate_noisy_ns_per_bit", float64(t)/float64(nBits))
		v.add("stochastic.gaussian_fill_ns_per_sample", float64(probeGaussianFill(nBits, uint64(k+1)))/float64(nBits))
	}
	for k := 0; k < 21; k++ {
		t, err := probeCircuitBuild()
		if err != nil {
			return err
		}
		v.add("core.circuit_build_us", float64(t)/1e3)
	}
	streamLen := shape(streamLens, defaultStreamLen)
	reps := max(1, 1<<16/streamLen)
	for k := 0; k < 7; k++ {
		pt := probePlanes(streamLen, reps, uint64(k+1))
		words := float64(pt.words * reps)
		v.add("stochastic.plane_absdiff_ns_per_word", float64(pt.absDiff)/words)
		v.add("stochastic.popcount_ns_per_word", float64(pt.popcount)/words)
		v.add("stochastic.sng_ns_per_word", float64(pt.sng)/words)
	}
	dir, err := os.MkdirTemp(o.out, "probe-")
	if err != nil {
		return err
	}
	save, load, err := probeCheckpoint(dir, shape(yieldSamples, defaultYieldSamples), 7, o.seed)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	for k := range save {
		v.add("dse.checkpoint_save_ms", float64(save[k])/1e6)
		v.add("dse.checkpoint_load_ms", float64(load[k])/1e6)
	}
	return nil
}

// shape is the median of a workload's sampled sizes, or def when the
// workload has none.
func shape(xs []float64, def int) int {
	if len(xs) == 0 {
		return def
	}
	return int(median(xs))
}

func replayWaterfall(v layerValues, bits int, seed uint64) error {
	t, decided, err := probeWaterfall(bits, seed)
	if err != nil {
		return err
	}
	v.add("transient.ber_waterfall_ms", float64(t)/1e6)
	v.add("transient.ber_ns_per_bit", float64(t)/decided)
	return nil
}

func replayYield(v layerValues, samples int, seed uint64) error {
	t, dies, err := probeYield(samples, seed)
	if err != nil {
		return err
	}
	v.add("dse.die_us", float64(t)/1e3/float64(dies))
	return nil
}

func replayImage(v layerValues, op, synth string, w, h, streamLen int, seed uint64) error {
	if op == "edge" {
		t, err := probeEdge(synth, w, h, streamLen, seed)
		if err != nil {
			return err
		}
		v.add("image.edge_ns_per_pixel_bit", float64(t)/float64(w*h*streamLen))
		return nil
	}
	cold, warm, err := probeGamma(synth, w, h, streamLen, seed)
	if err != nil {
		return err
	}
	v.add("image.gamma_ms_cold", float64(cold)/1e6)
	v.add("image.gamma_ms_warm", float64(warm)/1e6)
	return nil
}
