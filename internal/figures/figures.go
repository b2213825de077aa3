// Package figures is the shared figure registry: every renderable
// evaluation section of the paper reproduction (Fig. 5–7, the
// extension studies, the checkpointable yield campaign) keyed the way
// cmd/oscbench's -fig flag and cmd/oscserve's /v1/figures endpoint
// expose them. A figure renders a deterministic text table — identical
// on any evaluation engine at any worker count — which is what makes
// figure responses safely cacheable and retryable.
package figures

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	img "repro/internal/image"
	"repro/internal/stochastic"
	"repro/internal/transient"
)

// Config carries the per-render knobs into the figure generators. The
// zero value is not runnable; start from Defaults.
type Config struct {
	// GridN is the Fig 6(a) grid resolution per axis (>= 2).
	GridN int
	// SweepN is the Fig 7(a) spacing sweep point count (>= 2).
	SweepN int
	// Samples is the per-sigma die count of the yield study (>= 1).
	Samples int
	// Checkpoint, when set, snapshots the yield study to this file;
	// Resume loads it first and re-runs only the missing dies.
	Checkpoint string
	Resume     bool
	// ShardK/ShardN, when ShardN > 0, run only the yield dies shard
	// ShardK of ShardN owns (round-robin by die index), snapshotting
	// them to a shard-tagged checkpoint file for a later oscmerge.
	// Requires Checkpoint — a shard's output is its snapshot.
	ShardK, ShardN int
	// Engine dispatches every sweep a renderer runs; nil means
	// engine.Default(). Renderers dispatch on it at one level only:
	// fan-outs nested inside a sweep item run on engine.Serial.
	Engine engine.Engine
}

// Defaults is the standard figure configuration (what oscbench's flag
// defaults and oscserve's unset request fields resolve to).
func Defaults() Config {
	return Config{GridN: 6, SweepN: 11, Samples: 200}
}

// Validate reports the first malformed knob, phrased for flag users.
func (c Config) Validate() error {
	if c.GridN < 2 {
		return fmt.Errorf("-grid %d: need >= 2 points per axis", c.GridN)
	}
	if c.SweepN < 2 {
		return fmt.Errorf("-sweep %d: need >= 2 points", c.SweepN)
	}
	if c.Samples < 1 {
		return fmt.Errorf("-samples %d: need >= 1 die per sigma", c.Samples)
	}
	if (c.ShardN != 0 || c.ShardK != 0) && (c.ShardK < 0 || c.ShardK >= c.ShardN) {
		return fmt.Errorf("-shard %d/%d: shard index must be in [0, n) with n >= 1", c.ShardK, c.ShardN)
	}
	return nil
}

// engine resolves the dispatch engine for a render.
func (c Config) engine() engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return engine.Default()
}

// Figure is one renderable section: its registry key, display title
// and generator.
type Figure struct {
	Key, Title string
	Render     func(ctx context.Context, w io.Writer, cfg Config) error
}

// registry lists every figure in presentation ("-fig all") order.
var registry = []Figure{
	{"5a", "Fig 5(a)", func(_ context.Context, w io.Writer, _ Config) error {
		return dse.RenderFig5Case(w, dse.Fig5A())
	}},
	{"5b", "Fig 5(b)", func(_ context.Context, w io.Writer, _ Config) error {
		return dse.RenderFig5Case(w, dse.Fig5B())
	}},
	{"5c", "Fig 5(c)", func(ctx context.Context, w io.Writer, cfg Config) error {
		r, err := dse.Fig5C(ctx, cfg.engine())
		if err != nil {
			return err
		}
		return dse.RenderFig5C(w, r)
	}},
	{"6a", "Fig 6(a)", func(ctx context.Context, w io.Writer, cfg Config) error {
		pts, err := dse.Fig6A(ctx, cfg.engine(), cfg.GridN, cfg.GridN)
		if err != nil {
			return err
		}
		return dse.RenderFig6A(w, pts)
	}},
	{"6b", "Fig 6(b)", func(ctx context.Context, w io.Writer, cfg Config) error {
		pts, err := dse.Fig6B(ctx, cfg.engine(), []float64{1e-2, 1e-4, 1e-6})
		if err != nil {
			return err
		}
		return dse.RenderFig6B(w, pts)
	}},
	{"6c", "Fig 6(c)", func(ctx context.Context, w io.Writer, cfg Config) error {
		pts, err := dse.Fig6C(ctx, cfg.engine())
		if err != nil {
			return err
		}
		return dse.RenderFig6C(w, pts)
	}},
	{"7a", "Fig 7(a)", renderFig7A},
	{"7b", "Fig 7(b)", func(ctx context.Context, w io.Writer, cfg Config) error {
		rows, err := dse.Fig7B(ctx, cfg.engine(), []int{2, 4, 8, 12, 16})
		if err != nil {
			return err
		}
		return dse.RenderFig7B(w, rows)
	}},
	{"summary", "Summary", func(ctx context.Context, w io.Writer, cfg Config) error {
		s, err := dse.Summary(ctx, cfg.engine())
		if err != nil {
			return err
		}
		return dse.RenderSummary(w, s)
	}},
	{"tradeoff", "Throughput-accuracy trade-off (§V.B extension)", renderTradeoff},
	{"sweep", "Accuracy vs stream length (word-parallel batch engine)", func(ctx context.Context, w io.Writer, cfg Config) error {
		const sweepPoints = 17
		rows, err := dse.StreamLengthSweep(ctx, cfg.engine(), []int{64, 256, 1024, 4096, 16384}, sweepPoints, 9)
		if err != nil {
			return err
		}
		return dse.RenderStreamLengthSweep(w, rows, sweepPoints)
	}},
	{"noise", "Monte-Carlo noise study (accuracy/BER vs length, probe power, sigma)", func(ctx context.Context, w io.Writer, cfg Config) error {
		spec, err := dse.DefaultNoiseStudySpec()
		if err != nil {
			return err
		}
		rows, err := dse.NoiseStudy(ctx, cfg.engine(), spec)
		if err != nil {
			return err
		}
		return dse.RenderNoiseStudy(w, rows, spec)
	}},
	{"edge", "Image PSNR vs stream length (packed tiled engine)", func(ctx context.Context, w io.Writer, cfg Config) error {
		rows, err := dse.EdgeStudy(ctx, cfg.engine(), []int{64, 256, 1024, 4096}, 7)
		if err != nil {
			return err
		}
		return dse.RenderEdgeStudy(w, rows)
	}},
	{"waterfall", "BER waterfall (parallel over probe powers)", renderWaterfall},
	{"trace", "Transient waveform (word-parallel trace)", renderTrace},
	{"video", "Gamma video batch (cross-frame LUT cache)", renderVideo},
	{"yield", "Process-variation yield study (checkpointable)", renderYieldStudy},
	{"ablation", "Ablations", renderAblations},
}

// All returns the registry in presentation order.
func All() []Figure {
	out := make([]Figure, len(registry))
	copy(out, registry)
	return out
}

// Get resolves a figure by key.
func Get(key string) (Figure, bool) {
	for _, f := range registry {
		if f.Key == key {
			return f, true
		}
	}
	return Figure{}, false
}

// Keys lists every registered key in presentation order.
func Keys() []string {
	keys := make([]string, len(registry))
	for i, f := range registry {
		keys[i] = f.Key
	}
	return keys
}

// SortedKeys lists every registered key sorted — the order every
// "unknown figure" error message uses, so error text is deterministic
// and diffable.
func SortedKeys() []string {
	keys := Keys()
	sort.Strings(keys)
	return keys
}

func renderFig7A(ctx context.Context, w io.Writer, cfg Config) error {
	series, err := dse.Fig7A(ctx, cfg.engine(), []int{2, 4, 6}, cfg.SweepN)
	if err != nil {
		return err
	}
	if err := dse.RenderFig7A(w, series); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "\nn=2 curves (chart):"); err != nil {
		return err
	}
	chartPts, err := core.NewEnergyModel(2).SweepCtx(ctx, cfg.engine(), 0.11, 0.3, 48)
	if err != nil {
		return err
	}
	if err := dse.RenderEnergyChartASCII(w, chartPts, 96, 18, 70); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	profile, err := dse.ApplicationProfile(ctx, cfg.engine())
	if err != nil {
		return err
	}
	return dse.RenderApplicationProfile(w, profile)
}

func renderAblations(ctx context.Context, w io.Writer, cfg Config) error {
	ring, err := dse.RingSensitivity(ctx, cfg.engine(), []float64{0.75, 1.0, 1.25, 1.5})
	if err != nil {
		return err
	}
	if err := dse.RenderRingSensitivity(w, ring); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	rows, err := dse.APDComparison(1e-6)
	if err != nil {
		return err
	}
	if err := dse.RenderAPDComparison(w, rows, 1e-6); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	ps, err := dse.ParallelScaling([]int{1, 4, 16, 64}, 256)
	if err != nil {
		return err
	}
	if err := dse.RenderParallelScaling(w, ps, 256); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := core.MustCircuit(core.PaperParams()).ComputeLinkBudget().Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return renderYield(ctx, w, cfg)
}

func renderYield(ctx context.Context, w io.Writer, cfg Config) error {
	if _, err := fmt.Fprintln(w, "Monte-Carlo process variation (ring resonance σ, 200 dies, BER target 1e-6):"); err != nil {
		return err
	}
	p := core.PaperParams()
	t := dse.NewTable("resonance σ (nm)", "yield", "mean eye (mW)", "worst BER")
	for _, sigma := range []float64{0.01, 0.05, 0.1, 0.2} {
		r, err := core.AnalyzeYieldCtx(ctx, cfg.engine(), p, core.VariationSpec{
			RingResonanceSigmaNM: sigma,
			Samples:              200,
			Seed:                 99,
			TargetBER:            1e-6,
		})
		if err != nil {
			return err
		}
		t.AddRow(
			fmt.Sprintf("%.2f", sigma),
			fmt.Sprintf("%.1f%%", r.Yield*100),
			fmt.Sprintf("%.4f", r.MeanEyeMW),
			fmt.Sprintf("%.3g", r.WorstBER),
		)
	}
	return t.Render(w)
}

// yieldCheckpointEvery is the save cadence of the checkpointed yield
// study: a durable snapshot every this many completed dies
// (count-based so the cadence is deterministic).
const yieldCheckpointEvery = 10

// YieldStudySpec is the standard yield study shape for a given die
// count — shared by the renderer and by serve's /v1/yield endpoint so
// both run (and checkpoint) the identical sweep.
func YieldStudySpec(samples int) dse.YieldStudy {
	return dse.YieldStudy{
		Params:    core.PaperParams(),
		SigmasNM:  []float64{0.01, 0.05, 0.1, 0.2},
		Samples:   samples,
		Seed:      99,
		TargetBER: 1e-6,
	}
}

// renderYieldStudy regenerates the standalone yield figure: one row
// per ring-resonance sigma, Samples dies each, dispatched die-by-die
// on the configured engine. With Checkpoint set the completed dies
// snapshot to disk (and survive SIGINT); with Resume a matching
// snapshot is loaded first and only the missing dies re-run — the
// reassembled figure is bit-identical to an uninterrupted run.
//
// With ShardN > 0 the run computes only shard ShardK's dies into a
// shard-tagged snapshot (dse.ShardCheckpointPath) and reports its
// progress instead of a table; merging the family's snapshots with
// oscmerge yields a complete checkpoint any unsharded -resume run
// renders byte-identical to a run that never sharded. A shard whose
// snapshot holds the whole study (-shard 0/1) renders the table.
func renderYieldStudy(ctx context.Context, w io.Writer, cfg Config) error {
	s := YieldStudySpec(cfg.Samples)
	sharded := cfg.ShardN > 0
	if sharded && cfg.Checkpoint == "" {
		return fmt.Errorf("sharded yield run needs a checkpoint file: shard %d/%d's output is its snapshot", cfg.ShardK, cfg.ShardN)
	}
	var points []dse.YieldPoint
	var err error
	if cfg.Checkpoint != "" {
		path := cfg.Checkpoint
		if sharded {
			path = dse.ShardCheckpointPath(cfg.Checkpoint, cfg.ShardK, cfg.ShardN)
		}
		cp := dse.NewCheckpointer[core.DieOutcome](path, yieldCheckpointEvery, s.Key())
		if cfg.Resume {
			restored, lerr := cp.Load()
			if lerr != nil {
				return lerr
			}
			if _, perr := fmt.Fprintf(w, "resumed %d/%d dies from %s\n", restored, s.N(), path); perr != nil {
				return perr
			}
		}
		if sharded {
			if err := cp.RunShard(ctx, cfg.engine(), cfg.ShardK, cfg.ShardN, s.Die); err != nil {
				return err
			}
			completed := 0
			for _, d := range cp.Results() {
				if d != nil {
					completed++
				}
			}
			if completed < s.N() {
				// This shard's slice is complete and on disk — the
				// expected end state of a distributed leg.
				_, werr := fmt.Fprintf(w, "shard %d/%d: %d/%d dies complete in %s; assemble the study with oscmerge, then render with -checkpoint <merged> -resume\n",
					cfg.ShardK, cfg.ShardN, completed, s.N(), path)
				return werr
			}
		}
		points, err = s.RunCheckpointed(ctx, cfg.engine(), cp)
	} else {
		points, err = s.RunCtx(ctx, cfg.engine())
	}
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d dies per sigma, BER target %g, seed %d:\n", s.Samples, s.TargetBER, s.Seed); err != nil {
		return err
	}
	t := dse.NewTable("resonance σ (nm)", "yield", "mean eye (mW)", "worst BER")
	for _, pt := range points {
		t.AddRow(
			fmt.Sprintf("%.2f", pt.SigmaNM),
			fmt.Sprintf("%.1f%%", pt.Result.Yield*100),
			fmt.Sprintf("%.4f", pt.Result.MeanEyeMW),
			fmt.Sprintf("%.3g", pt.Result.WorstBER),
		)
	}
	return t.Render(w)
}

// renderWaterfall regenerates the BER waterfall: worst-case measured
// vs Eq. (9) analytic BER across probe powers sized for BER 1e-1 down
// to 1e-4. The points fan over the worker pool with per-point derived
// seeds, so the table is identical at any worker count.
func renderWaterfall(ctx context.Context, w io.Writer, cfg Config) error {
	base := core.PaperParams()
	c := core.MustCircuit(base)
	powers := []float64{
		c.MinProbePowerMW(1e-1),
		c.MinProbePowerMW(1e-2),
		c.MinProbePowerMW(1e-3),
		c.MinProbePowerMW(1e-4),
	}
	pts, err := transient.BERWaterfallCtx(ctx, cfg.engine(), base, powers, 200_000, 29)
	if err != nil {
		return err
	}
	t := dse.NewTable("probe (mW)", "measured BER", "analytic BER")
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.4f", p.ProbeMW), fmt.Sprintf("%.3g", p.MeasuredBER), fmt.Sprintf("%.3g", p.AnalyticBER))
	}
	return t.Render(w)
}

// renderTrace regenerates the pulse-gated transient waveform on a
// deliberately hot link (probe sized for BER 1e-3), one row per slot:
// the decision bit and the gated received-power peak. The trace runs
// word-parallel (core.Unit.Cycles + block noise) and is single-stream,
// so the table is identical at any worker count.
func renderTrace(ctx context.Context, w io.Writer, cfg Config) error {
	p := core.PaperParams()
	p.ProbePowerMW = core.MustCircuit(p).MinProbePowerMW(1e-3)
	c, err := core.NewCircuit(p)
	if err != nil {
		return err
	}
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 7)
	if err != nil {
		return err
	}
	sim := transient.NewSimulator(u, 8)
	const bits, spb = 16, 8
	tr, err := sim.TraceCtx(ctx, cfg.engine(), 0.5, bits, spb)
	if err != nil {
		return err
	}
	t := dse.NewTable("slot", "bit", "gated peak (mW)")
	for b := 0; b < bits; b++ {
		peak := 0.0
		for k := 0; k < spb; k++ {
			if pt := tr[b*spb+k]; pt.Gated && pt.ReceivedMW > peak {
				peak = pt.ReceivedMW
			}
		}
		t.AddRow(fmt.Sprint(b), fmt.Sprint(tr[b*spb].Bit), fmt.Sprintf("%.4f", peak))
	}
	return t.Render(w)
}

// renderVideo regenerates the gamma video batch: four synthetic
// frames corrected through one cached LUT (built once per recipe,
// applied per frame over the pool), scored against the exact
// transfer function.
func renderVideo(ctx context.Context, w io.Writer, cfg Config) error {
	frames := []*img.Gray{
		img.Gradient(48, 32),
		img.Radial(48, 32),
		img.Checkerboard(48, 32, 6, 40, 210),
		img.Gradient(48, 32),
	}
	var cache img.GammaLUTCache
	out, err := img.GammaVideoCtx(ctx, cfg.engine(), frames, 0.45, 6, 0.3, 1024, 13, &cache)
	if err != nil {
		return err
	}
	t := dse.NewTable("frame", "PSNR vs exact (dB)", "MAE")
	for i, f := range out {
		exact := img.GammaExact(frames[i], 0.45)
		t.AddRow(fmt.Sprint(i), fmt.Sprintf("%.2f", img.PSNR(exact, f)), fmt.Sprintf("%.3f", img.MeanAbsoluteError(exact, f)))
	}
	return t.Render(w)
}

func renderTradeoff(ctx context.Context, w io.Writer, cfg Config) error {
	// Size the paper circuit for a deliberately noisy 1e-2 link, then
	// show RMSE vs stream length with the implied throughput.
	p := core.PaperParams()
	p.ProbePowerMW = core.MustCircuit(p).MinProbePowerMW(1e-2)
	c, err := core.NewCircuit(p)
	if err != nil {
		return err
	}
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 7)
	if err != nil {
		return err
	}
	sim := transient.NewSimulator(u, 8)
	if _, err := fmt.Fprintf(w, "probe sized for BER 1e-2: %.4f mW; analytic worst-case BER %.2e\n\n",
		p.ProbePowerMW, sim.AnalyticWorstCaseBER()); err != nil {
		return err
	}
	pts, err := sim.AccuracyVsLengthCtx(ctx, cfg.engine(), 0.5, []int{64, 256, 1024, 4096, 16384}, 30)
	if err != nil {
		return err
	}
	t := dse.NewTable("stream length", "RMSE", "results/s @1 Gb/s")
	for _, pt := range pts {
		t.AddRow(fmt.Sprint(pt.StreamLen), fmt.Sprintf("%.4f", pt.RMSE), fmt.Sprintf("%.3g", pt.ThroughputResultsPerSec))
	}
	return t.Render(w)
}
