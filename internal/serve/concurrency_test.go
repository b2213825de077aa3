package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestConcurrentRequestsNeverTorn hammers a deliberately tiny server
// (1 worker, 1 queue slot) with concurrent identical jobs. Every
// response must be one of the typed outcomes — the correct 200 body, a
// 503 backpressure rejection, or a 504 deadline — and 200 bodies must
// all be byte-identical: saturation may shed load but never corrupt a
// response. Run under -race this also proves the queue, cache and LUT
// cache share state safely.
func TestConcurrentRequestsNeverTorn(t *testing.T) {
	s := New(Config{Engine: engine.Serial, Workers: 1, QueueDepth: 1})

	// The correct bytes, established before the stampede.
	want := post(s, "/v1/ber", smallBER)
	if want.Code != http.StatusOK {
		t.Fatalf("reference request = %d: %s", want.Code, want.Body.String())
	}

	// A different body per goroutine class: half hit the cached key,
	// half compute fresh keys through the saturated queue.
	const goroutines = 24
	bodies := make([][]byte, goroutines)
	codes := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := smallBER
			if g%2 == 1 {
				// Fresh content key: forces a real enqueue.
				body = fmt.Sprintf(`{"probe_mw": [0.5], "bits": 1500, "seed": %d}`, g+1)
			}
			rec := post(s, "/v1/ber", body)
			codes[g], bodies[g] = rec.Code, rec.Body.Bytes()
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		switch codes[g] {
		case http.StatusOK:
			var ok berBody
			if err := json.Unmarshal(bodies[g], &ok); err != nil {
				t.Errorf("goroutine %d: torn 200 body %q: %v", g, bodies[g], err)
				continue
			}
			if g%2 == 0 && !bytes.Equal(bodies[g], want.Body.Bytes()) {
				t.Errorf("goroutine %d: 200 body differs from reference", g)
			}
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var e ErrorBody
			if err := json.Unmarshal(bodies[g], &e); err != nil {
				t.Errorf("goroutine %d: torn error body %q: %v", g, bodies[g], err)
				continue
			}
			switch e.Kind {
			case "queue_full", "draining", "deadline":
			default:
				t.Errorf("goroutine %d: unexpected kind %q for %d", g, e.Kind, codes[g])
			}
		default:
			t.Errorf("goroutine %d: status %d, want 200/503/504: %s", g, codes[g], bodies[g])
		}
	}
}

// TestQueueSaturationRejectsTyped guarantees admission control: with
// the single worker pinned by a controlled job and the queue slot
// occupied, an HTTP job gets an immediate typed 503 queue_full with
// Retry-After — not an unbounded goroutine — and admission recovers
// once the queue clears.
func TestQueueSaturationRejectsTyped(t *testing.T) {
	s := New(Config{Engine: engine.Serial, Workers: 1, QueueDepth: 1})
	release := saturate(t, s)

	rec := post(s, "/v1/ber", `{"probe_mw": [0.5], "bits": 1000, "seed": 99}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated POST = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var e ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "queue_full" {
		t.Fatalf("saturated body = %s (err %v), want kind queue_full", rec.Body.String(), err)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 queue_full has no Retry-After header")
	}

	release()
	if rec := post(s, "/v1/ber", `{"probe_mw": [0.5], "bits": 1000, "seed": 99}`); rec.Code != http.StatusOK {
		t.Errorf("POST after queue cleared = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// saturate fills a Workers: 1, QueueDepth: 1 server's queue: the
// single worker is pinned by a controlled job and the queue slot is
// taken behind it, so any request that reaches admission gets 503
// queue_full. The returned func releases both jobs and waits for them.
func saturate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	unpin := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Pins the single worker until the test releases it.
		if err := s.queue.Do(context.Background(), func(context.Context) error {
			close(started)
			<-unpin
			return nil
		}); err != nil {
			t.Errorf("pinned job: %v", err)
		}
	}()
	<-started
	go func() {
		defer wg.Done()
		// Occupies the single queue slot behind the pinned worker.
		if err := s.queue.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Errorf("queued job: %v", err)
		}
	}()
	waitFor(t, func() bool { return s.queue.Depth() == 1 })
	return func() {
		close(unpin)
		wg.Wait()
	}
}

// waitFor polls cond to sidestep sleep-length flakiness.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestConcurrentCacheAccess floods one already-computed key from many
// goroutines: every response must be the identical 200, served without
// racing the cache (run under -race).
func TestConcurrentCacheAccess(t *testing.T) {
	s := New(Config{Engine: engine.Serial, Workers: 2, QueueDepth: 2})
	want := post(s, "/v1/ber", smallBER)
	if want.Code != http.StatusOK {
		t.Fatalf("warm-up = %d", want.Code)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(s, "/v1/ber", smallBER)
			if rec.Code != http.StatusOK {
				errs <- rec.Body.String()
				return
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				errs <- "body differs from reference"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("cached read failed: %s", e)
	}
}
