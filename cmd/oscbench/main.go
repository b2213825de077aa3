// Command oscbench regenerates the evaluation figures of "Stochastic
// Computing with Integrated Optics" (DATE 2019) as text tables.
//
// Usage:
//
//	oscbench -fig all          # every figure and the anchor summary
//	oscbench -fig 5a|5b|5c     # Fig. 5 worked examples and bands
//	oscbench -fig 6a|6b|6c     # probe-power design-space studies
//	oscbench -fig 7a|7b        # energy studies
//	oscbench -fig summary      # in-text anchors, paper vs measured
//	oscbench -fig tradeoff     # throughput-accuracy extension (§V.B)
//	oscbench -fig sweep        # noiseless accuracy vs stream length (batch engine)
//	oscbench -fig noise        # Monte-Carlo noise study (batched noisy engine)
//	oscbench -fig edge         # image PSNR vs stream length (packed tiled engine)
//	oscbench -fig waterfall    # BER waterfall, parallel over probe powers
//	oscbench -fig trace        # pulse-gated transient waveform (word-parallel)
//	oscbench -fig video        # gamma video batch (cross-frame LUT cache)
//	oscbench -fig yield        # checkpointable process-variation yield study
//	oscbench -fig ablation     # ring linewidth / APD / parallel array / link budget
//
// The registry itself lives in internal/figures, shared with the
// oscserve HTTP service. Every sweep dispatches on a deterministic
// evaluation engine (internal/engine), so figures are identical on any
// engine at any worker count:
//
//	oscbench -engine serial    # run every sweep on the serial engine
//	oscbench -engine parallel  # run on the word-parallel engine (default)
//	oscbench -workers 4        # cap the parallel worker pool at 4
//	oscbench -timing           # print per-figure wall time
//	oscbench -grid 12          # denser Fig 6(a) grid (>= 2)
//	oscbench -sweep 21         # denser Fig 7(a) spacing sweep (>= 2)
//
// Long sweeps are interruptible: SIGINT (or -timeout) cancels at the
// next item boundary and reports a typed partial-result error instead
// of crashing. The yield study can additionally snapshot to disk and
// resume, reassembling bit-identical results:
//
//	oscbench -fig yield -samples 500 -checkpoint yield.json
//	^C                         # interrupt; completed dies are on disk
//	oscbench -fig yield -samples 500 -checkpoint yield.json -resume
//
// The yield study also shards across processes or machines: -shard k/n
// runs only the dies shard k of n owns (round-robin by die index) into
// a shard-tagged snapshot (yield.json -> yield.shard<k>of<n>.json).
// Because every die derives its randomness from the die index alone,
// the shards' snapshots merge (cmd/oscmerge) into a checkpoint
// byte-identical to an unsharded run's, which -resume then renders
// without recomputing anything:
//
//	oscbench -fig yield -checkpoint yield.json -shard 0/3   # one per host
//	oscbench -fig yield -checkpoint yield.json -shard 1/3
//	oscbench -fig yield -checkpoint yield.json -shard 2/3
//	oscmerge -o yield.json yield.shard*of3.json
//	oscbench -fig yield -checkpoint yield.json -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate ("+strings.Join(figures.Keys(), ", ")+", all)")
	gridN := flag.Int("grid", figures.Defaults().GridN, "grid resolution for Fig 6(a) (>= 2)")
	sweepN := flag.Int("sweep", figures.Defaults().SweepN, "sweep points for Fig 7(a) (>= 2)")
	workers := flag.Int("workers", 0, "cap the parallel worker pool (0 = all cores)")
	engName := flag.String("engine", engine.WordParallel.Name(), "evaluation engine for every sweep ("+strings.Join(engine.Names(), ", ")+")")
	timing := flag.Bool("timing", false, "print per-figure wall time")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no deadline)")
	samples := flag.Int("samples", figures.Defaults().Samples, "dies per sigma for -fig yield (>= 1)")
	checkpoint := flag.String("checkpoint", "", "snapshot file for -fig yield (enables interrupt/resume)")
	resume := flag.Bool("resume", false, "resume -fig yield from the -checkpoint file")
	shard := flag.String("shard", "", "run only shard k of n of -fig yield as k/n (e.g. 0/3; needs -checkpoint, merge with oscmerge)")
	flag.Parse()

	shardK, shardN, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oscbench:", err)
		os.Exit(1)
	}

	eng, err := engine.Get(*engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oscbench:", err)
		os.Exit(1)
	}

	// SIGINT cancels the sweep context; conforming dispatch paths stop
	// at the next item boundary and surface a *engine.Partial. A second
	// SIGINT (after stop()) kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := figures.Config{
		GridN:      *gridN,
		SweepN:     *sweepN,
		Samples:    *samples,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		ShardK:     shardK,
		ShardN:     shardN,
		Engine:     eng,
	}
	if err := run(ctx, os.Stdout, *fig, cfg, *workers, *timing); err != nil {
		fmt.Fprintln(os.Stderr, "oscbench:", err)
		os.Exit(1)
	}
}

// parseShard parses a -shard spec: "" means unsharded, otherwise "k/n"
// with 0 <= k < n. Range errors phrase the constraint for flag users.
func parseShard(spec string) (k, n int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	lhs, rhs, found := strings.Cut(spec, "/")
	if !found {
		return 0, 0, fmt.Errorf("-shard %q: want k/n (e.g. 0/3)", spec)
	}
	k, err = strconv.Atoi(lhs)
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: shard index %q is not an integer", spec, lhs)
	}
	n, err = strconv.Atoi(rhs)
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: shard count %q is not an integer", spec, rhs)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("-shard %q: shard index must be in [0, n) with n >= 1", spec)
	}
	return k, n, nil
}

// run validates the flag set and renders the selected figure(s). Split
// from main so the validation contract (checkpoint flags only with
// -fig yield, -resume only with -checkpoint, unknown figures listing
// the sorted registry) is testable.
func run(ctx context.Context, w io.Writer, fig string, cfg figures.Config, workers int, timing bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if workers < 0 {
		return fmt.Errorf("-workers %d: need >= 0", workers)
	}
	if cfg.Resume && cfg.Checkpoint == "" {
		return fmt.Errorf("-resume needs a -checkpoint file naming the snapshot to load")
	}
	if (cfg.Checkpoint != "" || cfg.Resume) && fig != "yield" {
		return fmt.Errorf("-checkpoint/-resume apply to -fig yield only (got -fig %s); they would be silently ignored otherwise", fig)
	}
	if cfg.ShardN > 0 {
		if fig != "yield" {
			return fmt.Errorf("-shard applies to -fig yield only (got -fig %s); other figures do not shard yet", fig)
		}
		if cfg.Checkpoint == "" {
			return fmt.Errorf("-shard %d/%d needs -checkpoint: a shard's output is its snapshot file, merged later with oscmerge", cfg.ShardK, cfg.ShardN)
		}
	}
	if workers > 0 {
		// The worker pool sizes itself from GOMAXPROCS; capping it here
		// bounds every sweep's parallelism. Results are unaffected: all
		// sweeps are deterministic by index.
		runtime.GOMAXPROCS(workers)
	}

	any := false
	for _, f := range figures.All() {
		if fig != "all" && fig != f.Key {
			continue
		}
		any = true
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stopping before %s: %w", f.Key, err)
		}
		if _, err := fmt.Fprintf(w, "\n==== %s ====\n\n", f.Title); err != nil {
			return err
		}
		start := time.Now()
		if err := f.Render(ctx, w, cfg); err != nil {
			return err
		}
		if timing {
			if _, err := fmt.Fprintf(w, "[%s: %v]\n", f.Key, time.Since(start).Round(time.Microsecond)); err != nil {
				return err
			}
		}
	}
	if !any {
		return fmt.Errorf("unknown figure %q (available: %s, all)", fig, strings.Join(figures.SortedKeys(), ", "))
	}
	return nil
}
