// Command oscserve runs the crash-safe simulation service: the figure
// registry, BER/yield analyses and stochastic image operators behind
// a JSON HTTP API with backpressure, deadlines and graceful drain.
// See internal/serve for the API reference.
//
// On SIGTERM or SIGINT the server stops admitting jobs, drains
// in-flight work for up to -grace, cancels whatever remains so long
// sweeps checkpoint at an item boundary, and exits 0. With
// -checkpoint-dir set, re-POSTing an interrupted /v1/yield study to a
// restarted server resumes from the snapshot and returns bytes
// identical to an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "oscserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("oscserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8765", "listen address")
		engName  = fs.String("engine", engine.WordParallel.Name(), "evaluation engine (serial or parallel)")
		workers  = fs.Int("workers", 0, "concurrent jobs (default 2)")
		queue    = fs.Int("queue", 0, "queued jobs beyond workers before 503 (default 8)")
		slots    = fs.Int("slots", 0, "concurrent work items across all jobs (default GOMAXPROCS)")
		deadline = fs.Duration("deadline", 0, "default per-job deadline when the request sets none (0 = none)")
		maxDL    = fs.Duration("max-deadline", 0, "cap on per-request timeout_ms (default 5m)")
		cacheN   = fs.Int("cache", 0, "result cache entries (default 256, negative disables)")
		ckptDir  = fs.String("checkpoint-dir", "", "directory for /v1/yield snapshots (empty = no checkpointing)")
		ckptEach = fs.Int("checkpoint-every", 0, "snapshot cadence in completed dies (default 10)")
		grace    = fs.Duration("grace", 30*time.Second, "drain budget after SIGTERM before cancelling jobs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine.Get(*engName)
	if err != nil {
		return err
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("creating -checkpoint-dir: %w", err)
		}
	}

	srv := serve.New(serve.Config{
		Engine:          eng,
		Slots:           *slots,
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *deadline,
		MaxTimeout:      *maxDL,
		CacheEntries:    *cacheN,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEach,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "oscserve: listening on %s (engine %s)\n", *addr, srv.Engine().Name())
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintf(os.Stderr, "oscserve: draining (grace %s)\n", *grace)
	hardCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	srv.Drain(hardCtx)
	if err := hs.Shutdown(hardCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "oscserve: drained, exiting")
	return nil
}
