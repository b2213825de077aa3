package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSerialEngineOrdering: the reference engine runs indices in
// ascending order, inline, with worker identity 0 throughout.
func TestSerialEngineOrdering(t *testing.T) {
	var order []int
	Serial.For(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("For order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("For ran %d of 5 items", len(order))
	}
	order = order[:0]
	Serial.ForWorker(4, Serial.Workers(4), func(w, i int) {
		if w != 0 {
			t.Fatalf("serial worker identity %d", w)
		}
		order = append(order, i)
	})
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Fatalf("ForWorker order %v", order)
	}
	if Serial.Workers(100) != 1 {
		t.Fatalf("serial Workers(100) = %d", Serial.Workers(100))
	}
	if Serial.Name() != "serial" {
		t.Fatalf("serial Name %q", Serial.Name())
	}
}

// TestWordParallelEngineCoversAllIndices: the pooled engine visits
// every index exactly once and honors its advertised worker bound —
// the exactly-once half of the contract, under -race.
func TestWordParallelEngineCoversAllIndices(t *testing.T) {
	const n = 257
	visits := make([]int32, n)
	WordParallel.For(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("For visited index %d %d times", i, v)
		}
	}
	workers := WordParallel.Workers(n)
	if workers < 1 || workers > n {
		t.Fatalf("Workers(%d) = %d out of range", n, workers)
	}
	visits = make([]int32, n)
	WordParallel.ForWorker(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker %d outside [0, %d)", w, workers)
		}
		atomic.AddInt32(&visits[i], 1)
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("ForWorker visited index %d %d times", i, v)
		}
	}
}

// TestRegistryResolution: the built-ins resolve by name; unknown and
// empty names error cleanly, naming the available engines.
func TestRegistryResolution(t *testing.T) {
	for _, want := range []Engine{Serial, WordParallel} {
		got, err := Get(want.Name())
		if err != nil || got != want {
			t.Fatalf("Get(%q) = %v, %v", want.Name(), got, err)
		}
	}
	for _, bogus := range []string{"bogus", ""} {
		if _, err := Get(bogus); err == nil {
			t.Errorf("Get(%q) accepted", bogus)
		} else if !strings.Contains(err.Error(), "serial") || !strings.Contains(err.Error(), "parallel") {
			t.Errorf("Get(%q) error does not name the choices: %v", bogus, err)
		}
	}
	names := Names()
	if len(names) < 2 || names[0] > names[1] {
		t.Fatalf("Names() = %v (want sorted, >= 2 entries)", names)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d engines for %d names", len(all), len(names))
	}
	for i, e := range all {
		if e.Name() != names[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, e.Name(), names[i])
		}
	}
}

// namedEngine wraps Serial under another name for registry tests.
type namedEngine struct {
	Engine
	name string
}

func (e namedEngine) Name() string { return e.name }

// TestRegisterValidation: nil engines, empty names and duplicates are
// rejected; a valid registration becomes Get/All-visible.
func TestRegisterValidation(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Error("Register(nil) accepted")
	}
	if err := Register(namedEngine{Serial, ""}); err == nil {
		t.Error("Register with empty name accepted")
	}
	if err := Register(namedEngine{Serial, "serial"}); err == nil {
		t.Error("Register with duplicate name accepted")
	}
	e := namedEngine{Serial, "test-registered"}
	if err := Register(e); err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer func() {
		regMu.Lock()
		delete(registry, e.name)
		regMu.Unlock()
	}()
	got, err := Get(e.name)
	if err != nil || got.(namedEngine) != e {
		t.Fatalf("Get after Register = %v, %v", got, err)
	}
}

// TestDefaultEngine: the process default starts as WordParallel, is
// swappable, and rejects nil.
func TestDefaultEngine(t *testing.T) {
	orig := Default()
	if orig != WordParallel {
		t.Fatalf("initial default %q", orig.Name())
	}
	defer func() {
		if err := SetDefault(orig); err != nil {
			t.Fatal(err)
		}
	}()
	if err := SetDefault(Serial); err != nil {
		t.Fatal(err)
	}
	if Default() != Serial {
		t.Fatal("SetDefault(Serial) did not take")
	}
	if err := SetDefault(nil); err == nil {
		t.Error("SetDefault(nil) accepted")
	}
	if Default() != Serial {
		t.Error("rejected SetDefault(nil) still clobbered the default")
	}
}

// TestNilEngineMisuse: Check errors and Use panics, both with a
// message pointing at the valid selections.
func TestNilEngineMisuse(t *testing.T) {
	if err := Check(nil); err == nil || !strings.Contains(err.Error(), "nil engine") {
		t.Errorf("Check(nil) = %v", err)
	}
	if err := Check(Serial); err != nil {
		t.Errorf("Check(Serial) = %v", err)
	}
	if Use(Serial) != Serial {
		t.Error("Use(Serial) did not return its engine")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Use(nil) did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "nil engine") {
			t.Fatalf("Use(nil) panic = %v", r)
		}
	}()
	Use(nil)
}

// TestChunkedPartition: chunks tile [0, n) exactly, in order, respect
// the minimum chunk size, and degenerate cases fall back to one
// inline range (or nothing for empty input).
func TestChunkedPartition(t *testing.T) {
	for _, tc := range []struct {
		e               Engine
		n, minChunk     int
		maxChunks       int
		wantSingleChunk bool
	}{
		{Serial, 61, 16, 1, true},        // serial engine: always one inline range
		{WordParallel, 61, 16, 4, false}, // ceil(61/16) = 4 chunks at most
		{WordParallel, 61, 100, 1, true}, // minChunk > n: serial fallback
		{WordParallel, 3, 0, 3, false},   // minChunk clamps to 1
	} {
		covered := make([]int, tc.n)
		var chunks int32
		if err := Chunked(context.Background(), tc.e, tc.n, tc.minChunk, func(lo, hi int) {
			atomic.AddInt32(&chunks, 1)
			if hi <= lo {
				t.Errorf("empty chunk [%d, %d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		}); err != nil {
			t.Fatalf("e=%s n=%d minChunk=%d: %v", tc.e.Name(), tc.n, tc.minChunk, err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("e=%s n=%d minChunk=%d: index %d covered %d times", tc.e.Name(), tc.n, tc.minChunk, i, c)
			}
		}
		if int(chunks) > tc.maxChunks {
			t.Errorf("e=%s n=%d minChunk=%d: %d chunks, want <= %d", tc.e.Name(), tc.n, tc.minChunk, chunks, tc.maxChunks)
		}
		if tc.wantSingleChunk && chunks != 1 {
			t.Errorf("e=%s n=%d minChunk=%d: %d chunks, want exactly 1", tc.e.Name(), tc.n, tc.minChunk, chunks)
		}
	}
	if err := Chunked(context.Background(), Serial, 0, 8, func(lo, hi int) { t.Error("Chunked ran a chunk for n=0") }); err != nil {
		t.Errorf("Chunked(n=0) = %v", err)
	}
	if err := Chunked(context.Background(), nil, 4, 1, func(lo, hi int) {}); err == nil {
		t.Error("Chunked(nil engine) did not error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []Engine{Serial, WordParallel} {
		if err := Chunked(ctx, e, 61, 1, func(lo, hi int) { t.Errorf("%s: canceled Chunked ran [%d, %d)", e.Name(), lo, hi) }); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled Chunked = %v, want context.Canceled", e.Name(), err)
		}
	}
}
