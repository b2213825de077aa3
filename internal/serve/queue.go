package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// ErrQueueFull is the admission-control rejection: the job queue has
// no free slot. Clients should retry after Retry-After; an identical
// retry is idempotent (the result cache serves it once any attempt
// completes).
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is the shutdown rejection: the server stopped admitting
// jobs and is waiting for in-flight ones to finish or checkpoint.
var ErrDraining = errors.New("serve: server is draining")

// queueJob is one accepted unit of work. state moves queued(0) →
// running(1) exactly once, or queued(0) → abandoned(2) when the
// submitter's context fires before a worker picks it up.
type queueJob struct {
	ctx   context.Context
	run   func(ctx context.Context) error
	state atomic.Int32
	err   error
	done  chan struct{}
}

const (
	jobQueued int32 = iota
	jobRunning
	jobAbandoned
)

// Queue is the bounded job queue behind every compute endpoint: a
// fixed worker pool consuming a fixed-capacity channel. Admission is
// non-blocking — a full queue rejects with ErrQueueFull instead of
// growing goroutines — and drain is cooperative: admissions stop,
// queued jobs still run, and when the drain grace expires every
// running job's context cancels so ctx-aware sweeps stop at an item
// boundary (checkpointing what completed).
type Queue struct {
	mu       sync.Mutex
	draining bool

	jobs     chan *queueJob
	jobWG    sync.WaitGroup // accepted jobs not yet finished or abandoned
	workerWG sync.WaitGroup

	// drainCtx cancels when a drain turns hard; every running job's
	// context is a child of both its request context and this one.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	running atomic.Int64
}

// NewQueue starts a queue with `workers` concurrent jobs and room for
// `capacity` more waiting. Both are clamped to at least 1 (and 0
// waiting slots is allowed: capacity < 0 clamps to 0).
func NewQueue(workers, capacity int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if capacity < 0 {
		capacity = 0
	}
	q := &Queue{jobs: make(chan *queueJob, capacity)}
	q.drainCtx, q.drainCancel = context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		q.workerWG.Add(1)
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.workerWG.Done()
	for j := range q.jobs {
		if !j.state.CompareAndSwap(jobQueued, jobRunning) {
			q.jobWG.Done() // abandoned while queued; submitter is gone
			continue
		}
		q.running.Add(1)
		jctx, cancel := context.WithCancel(j.ctx)
		stopAfter := context.AfterFunc(q.drainCtx, cancel)
		// A panic escaping the job must not kill the worker (the pool
		// would shrink silently) nor hang the submitter: capture it as
		// the typed error the engine layer uses. Index -1 marks "not an
		// engine item" — engine-dispatched panics surface as errors with
		// their real index before reaching here.
		if pe := engine.Capture(0, -1, func() { j.err = j.run(jctx) }); pe != nil {
			j.err = pe
		}
		stopAfter()
		cancel()
		q.running.Add(-1)
		close(j.done)
		q.jobWG.Done()
	}
}

// Do admits run onto the queue and waits for it. It returns
// ErrDraining or ErrQueueFull without running anything when admission
// fails; ctx.Err() when the submitter's context fires while the job
// is still queued (the job is abandoned, never run); otherwise the
// job's own error. When ctx fires mid-run, Do still waits: the job's
// context is a child of ctx, so ctx-aware work stops at its next item
// boundary and reports how far it got — the caller always observes a
// complete, settled outcome, never a torn one.
func (q *Queue) Do(ctx context.Context, run func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &queueJob{ctx: ctx, run: run, done: make(chan struct{})}
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return ErrDraining
	}
	// Count the job before the send: once it is on the channel a worker
	// may finish it and call Done before this goroutine runs again.
	q.jobWG.Add(1)
	select {
	case q.jobs <- j:
		q.mu.Unlock()
	default:
		q.jobWG.Done()
		q.mu.Unlock()
		return ErrQueueFull
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		if j.state.CompareAndSwap(jobQueued, jobAbandoned) {
			return ctx.Err()
		}
		<-j.done
		return j.err
	}
}

// Drain stops admissions and waits for every accepted job. Until
// hardCtx fires, queued and running jobs finish normally; once it
// fires, every running job's context cancels so ctx-aware sweeps stop
// at an item boundary (and checkpoint). Drain returns when the queue
// is empty and all workers have exited. It is idempotent.
func (q *Queue) Drain(hardCtx context.Context) {
	if hardCtx == nil {
		hardCtx = context.Background()
	}
	q.mu.Lock()
	first := !q.draining
	if first {
		q.draining = true
		// No sends can follow: Do checks draining under this mutex.
		close(q.jobs)
	}
	q.mu.Unlock()
	stop := context.AfterFunc(hardCtx, q.drainCancel)
	defer stop()
	q.jobWG.Wait()
	q.workerWG.Wait()
	if first {
		q.drainCancel()
	}
}

// Draining reports whether admissions have stopped.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Depth is the number of jobs waiting for a worker right now.
func (q *Queue) Depth() int { return len(q.jobs) }

// Running is the number of jobs executing right now.
func (q *Queue) Running() int { return int(q.running.Load()) }

// Capacity is the waiting-room size the queue was built with.
func (q *Queue) Capacity() int { return cap(q.jobs) }
