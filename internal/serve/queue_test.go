package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueueTinyJobsStress submits thousands of no-op jobs to a
// one-worker queue from several goroutines. A job this short often
// finishes before its submitter runs again, so the queue must count
// an accepted job before handing it to a worker: counting after the
// send let the worker's Done run first and panic with a negative
// WaitGroup counter. Every job is either rejected as ErrQueueFull or
// run exactly once, and Drain returns with all of them settled. CI
// runs it under -race -count=50.
func TestQueueTinyJobsStress(t *testing.T) {
	q := NewQueue(1, 2)
	const submitters, perSubmitter = 4, 500
	var ran, accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				err := q.Do(context.Background(), func(context.Context) error {
					ran.Add(1)
					return nil
				})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				default:
					t.Errorf("Do: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	q.Drain(context.Background())
	if got := accepted.Load() + rejected.Load(); got != submitters*perSubmitter {
		t.Errorf("%d outcomes for %d submissions", got, submitters*perSubmitter)
	}
	if ran.Load() != accepted.Load() {
		t.Errorf("%d jobs ran, %d accepted", ran.Load(), accepted.Load())
	}
	if accepted.Load() == 0 {
		t.Error("no job was accepted")
	}
}
