package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: each client sends its next
// request only after the previous response's last byte, over its own
// keep-alive connection. Two matches the reference box's nproc.
const clients = 2

// opResult is one completed op of the timed phase.
type opResult struct {
	index      int
	start, end time.Duration // since the phase began
	status     int
	size       int
	// kept marks the checked indices (see workload.checkEvery), whose
	// body is held for the output check.
	kept bool
	body []byte
	err  error
}

func (r opResult) failed() bool { return r.err != nil || r.status < 200 || r.status > 299 }

// target executes one op for client c.
type target interface {
	do(ctx context.Context, c, i int, req request, keep bool) (status int, body []byte, size int, err error)
}

// httpTarget sends ops to a service over loopback, one connection per
// client.
type httpTarget struct {
	base    string
	clients []*http.Client
}

func newHTTPTarget(base string) *httpTarget {
	t := &httpTarget{base: base}
	for c := 0; c < clients; c++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return t
}

func (t *httpTarget) do(ctx context.Context, c, i int, req request, keep bool) (int, []byte, int, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+req.path, strings.NewReader(req.body))
	if err != nil {
		return 0, nil, 0, err
	}
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set(requestIDHeader, strconv.Itoa(i))
	resp, err := t.clients[c%len(t.clients)].Do(r)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if keep || resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, len(body), err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, int(n), err
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// renderTarget renders figures in process on an engine.
type renderTarget struct{ eng engineRef }

func (t renderTarget) do(ctx context.Context, _, i int, req request, _ bool) (int, []byte, int, error) {
	key := strings.TrimPrefix(req.path, "/v1/figures/")
	out, err := renderFigure(withRequestID(ctx, int64(i)), key, t.eng)
	if err != nil {
		msg := []byte(err.Error())
		return http.StatusInternalServerError, msg, len(msg), nil
	}
	return http.StatusOK, out, len(out), nil
}

// runPhase drives the closed loop for d: clients take op indices in
// order from a shared counter until d has elapsed, and finish the op
// in flight. Completed ops are returned sorted by index, so they form
// the prefix [0, len). Op times are relative to start.
func runPhase(ctx context.Context, w *workload, seed uint64, t target, start time.Time, d time.Duration) []opResult {
	var next atomic.Int64
	var inflight keyedMutex
	per := make([][]opResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				req := w.gen(seed, i)
				keep := i%w.checkEvery == 0
				unlock := func() {}
				if req.exclusive {
					unlock = inflight.lock(req.path + req.body)
				}
				s := time.Since(start)
				status, body, size, err := t.do(ctx, c, i, req, keep)
				e := time.Since(start)
				unlock()
				per[c] = append(per[c], opResult{index: i, start: s, end: e, status: status, size: size, kept: keep, body: body, err: err})
			}
		}(c)
	}
	wg.Wait()
	var out []opResult
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// keyedMutex serializes work by key.
type keyedMutex struct {
	mu   sync.Mutex
	keys map[string]*sync.Mutex
}

// lock acquires key's mutex and returns its release.
func (k *keyedMutex) lock(key string) func() {
	k.mu.Lock()
	if k.keys == nil {
		k.keys = map[string]*sync.Mutex{}
	}
	m := k.keys[key]
	if m == nil {
		m = &sync.Mutex{}
		k.keys[key] = m
	}
	k.mu.Unlock()
	m.Lock()
	return m.Unlock
}

// rounds splits the completed ops into n consecutive index ranges of
// equal size, aligned to the workload's pass length so every round
// holds the same op mix, and returns each range's throughput in ops/s.
// A range's time runs from the moment every earlier op had finished to
// the moment all of its own had.
func rounds(ops []opResult, period, n int) []float64 {
	per := len(ops) / n / period * period
	if per == 0 {
		per = len(ops) / n
	}
	if per == 0 {
		return nil
	}
	doneBy := make([]time.Duration, len(ops)+1) // doneBy[k]: all ops < k finished
	for k, op := range ops {
		doneBy[k+1] = max(doneBy[k], op.end)
	}
	out := make([]float64, n)
	for r := 0; r < n; r++ {
		lo, hi := r*per, (r+1)*per
		span := (doneBy[hi] - doneBy[lo]).Seconds()
		if span <= 0 {
			span = math.SmallestNonzeroFloat64
		}
		out[r] = float64(hi-lo) / span
	}
	return out
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencies returns the ops' latencies in ms, sorted.
func latencies(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for k, op := range ops {
		out[k] = float64(op.end-op.start) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// beyond counts the samples strictly above the p-th percentile.
func beyond(sorted []float64, p float64) int {
	v := percentile(sorted, p)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func describeFailure(op opResult) string {
	if op.err != nil {
		return fmt.Sprintf("op %d: %v", op.index, op.err)
	}
	return fmt.Sprintf("op %d: HTTP %d: %.200s", op.index, op.status, op.body)
}
