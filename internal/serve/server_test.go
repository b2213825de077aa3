package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/figures"
	img "repro/internal/image"
)

// post runs one POST through the handler and returns the recorder.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestFigureListSorted(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := get(s, "/v1/figures")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/figures = %d, want 200", rec.Code)
	}
	body := decodeBody[figureListBody](t, rec)
	want := figures.SortedKeys()
	if len(body.Figures) != len(want) {
		t.Fatalf("listing has %d figures, want %d", len(body.Figures), len(want))
	}
	for i, f := range body.Figures {
		if f.Key != want[i] {
			t.Errorf("figure[%d].key = %q, want %q (sorted)", i, f.Key, want[i])
		}
		if f.Title == "" {
			t.Errorf("figure %q has empty title", f.Key)
		}
	}
}

func TestFigureRenderMatchesDirect(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := post(s, "/v1/figures/5a", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/figures/5a = %d: %s", rec.Code, rec.Body.String())
	}
	body := decodeBody[figureBody](t, rec)

	fig, ok := figures.Get("5a")
	if !ok {
		t.Fatal("figure 5a not registered")
	}
	cfg := figures.Defaults()
	cfg.Engine = engine.Serial
	var direct bytes.Buffer
	if err := fig.Render(context.Background(), &direct, cfg); err != nil {
		t.Fatalf("direct render: %v", err)
	}
	if body.Output != direct.String() {
		t.Errorf("served output differs from direct render:\nserved:\n%s\ndirect:\n%s", body.Output, direct.String())
	}
}

func TestUnknownFigure404ListsSortedKeys(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := post(s, "/v1/figures/nope", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	body := decodeBody[ErrorBody](t, rec)
	if body.Kind != "not_found" {
		t.Errorf("kind = %q, want not_found", body.Kind)
	}
	want := strings.Join(figures.SortedKeys(), ", ")
	if !strings.Contains(body.Error, want) {
		t.Errorf("error %q does not list sorted keys %q", body.Error, want)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	cases := []struct {
		name, path, body string
	}{
		{"unknown field", "/v1/ber", `{"bogus": 1}`},
		{"trailing data", "/v1/ber", `{} {}`},
		{"both probe and target", "/v1/ber", `{"probe_mw":[1],"target_ber":[0.01]}`},
		{"bits too big", "/v1/ber", `{"bits": 99000000}`},
		{"negative timeout", "/v1/ber", `{"timeout_ms": -5}`},
		{"zero samples", "/v1/yield", `{"samples": -1}`},
		{"bad target", "/v1/yield", `{"target_ber": 0.9}`},
		{"figure over caps", "/v1/figures/5a", `{"samples": 200000}`},
		{"figure grid too small", "/v1/figures/5a", `{"grid": 1}`},
		{"image no source", "/v1/image/edge", `{"source": {}}`},
		{"image bad synth", "/v1/image/edge", `{"source": {"synth": "plaid"}}`},
		{"image bad format", "/v1/image/edge", `{"source": {"synth": "gradient"}, "format": "bmp"}`},
		{"image bad base64", "/v1/image/edge", `{"source": {"pgm_base64": "!!!"}}`},
	}
	for _, tc := range cases {
		rec := post(s, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if body := decodeBody[ErrorBody](t, rec); body.Kind != "bad_request" {
			t.Errorf("%s: kind = %q, want bad_request", tc.name, body.Kind)
		}
	}
}

const smallBER = `{"probe_mw": [0.4, 0.6, 0.8], "bits": 2000, "seed": 7}`

func TestBERWaterfall(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := post(s, "/v1/ber", smallBER)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/ber = %d: %s", rec.Code, rec.Body.String())
	}
	body := decodeBody[berBody](t, rec)
	if len(body.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(body.Points))
	}
	for i, p := range body.Points {
		if p.ProbeMW <= 0 || p.AnalyticBER < 0 || p.MeasuredBER < 0 {
			t.Errorf("point %d out of range: %+v", i, p)
		}
	}
	// Higher probe power must not worsen analytic BER.
	for i := 1; i < len(body.Points); i++ {
		if body.Points[i].AnalyticBER > body.Points[i-1].AnalyticBER {
			t.Errorf("analytic BER rose with power: %+v", body.Points)
		}
	}
}

// TestChaosByteIdentity is the tentpole chaos gate: a server dispatching
// on a fault-injecting engine (drops, delays) must answer every request
// with bytes identical to a server on engine.Serial.
func TestChaosByteIdentity(t *testing.T) {
	chaos := enginetest.NewChaos("serve-chaos", engine.WordParallel, 42, enginetest.ChaosSpec{
		DropProb:  0.4,
		DelayProb: 0.3,
		Delay:     100 * time.Microsecond,
	})
	serial := New(Config{Engine: engine.Serial})
	chaotic := New(Config{Engine: chaos})

	requests := []struct{ path, body string }{
		{"/v1/figures/5a", ""},
		{"/v1/figures/sweep", ""},
		{"/v1/ber", smallBER},
		{"/v1/yield", `{"sigmas_nm": [0.05], "samples": 8}`},
		{"/v1/image/edge", `{"source": {"synth": "checkerboard", "width": 24, "height": 16}, "stream_len": 256}`},
		{"/v1/image/gamma", `{"source": {"synth": "gradient", "width": 24, "height": 16}, "stream_len": 256}`},
	}
	for _, req := range requests {
		a := post(serial, req.path, req.body)
		b := post(chaotic, req.path, req.body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: serial=%d chaos=%d (%s / %s)", req.path, a.Code, b.Code, a.Body.String(), b.Body.String())
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: chaos body differs from serial:\nserial: %s\nchaos:  %s", req.path, a.Body.String(), b.Body.String())
		}
	}
}

// flipEngine dispatches the first sweep on a panic-injecting chaos
// engine and every later sweep on engine.Serial — the shape of a
// one-off fault in production.
type flipEngine struct {
	mu    sync.Mutex
	used  bool
	first engine.Engine
	rest  engine.Engine
}

func (f *flipEngine) pick() engine.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.used {
		f.used = true
		return f.first
	}
	return f.rest
}

func (f *flipEngine) Name() string      { return "flip" }
func (f *flipEngine) Workers(n int) int { return 1 }
func (f *flipEngine) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	return f.pick().ForWorkerCtx(ctx, n, workers, fn)
}

// TestPanicIsolation: a panicking work item turns into a typed 500
// naming the faulting index, and the server keeps serving afterwards.
func TestPanicIsolation(t *testing.T) {
	const panicAt = 1
	flip := &flipEngine{
		first: enginetest.NewChaos("boom", engine.Serial, 1, enginetest.ChaosSpec{Panic: true, PanicAt: panicAt}),
		rest:  engine.Serial,
	}
	s := New(Config{Engine: flip})

	rec := post(s, "/v1/ber", smallBER)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking sweep = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	body := decodeBody[ErrorBody](t, rec)
	if body.Kind != "panic" {
		t.Errorf("kind = %q, want panic", body.Kind)
	}
	if body.Index == nil {
		t.Fatalf("500 body has no faulting index: %s", rec.Body.String())
	}
	if *body.Index != panicAt {
		t.Errorf("faulting index = %d, want %d", *body.Index, panicAt)
	}

	// The worker survived: health is green and the same request now
	// succeeds on the healthy engine.
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", rec.Code)
	}
	if rec := post(s, "/v1/ber", smallBER); rec.Code != http.StatusOK {
		t.Errorf("request after panic = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// slowEngine stretches the handout of every work item so short
// deadlines reliably expire mid-sweep, even for a one-item dispatch:
// after each delay it checks the context at the item boundary and
// skips the item once the context has fired, reporting the skip as
// the context's error.
type slowEngine struct {
	inner engine.Engine
	delay time.Duration
}

func (s slowEngine) Name() string      { return "slow" }
func (s slowEngine) Workers(n int) int { return s.inner.Workers(n) }
func (s slowEngine) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	var skipped atomic.Bool
	err := s.inner.ForWorkerCtx(ctx, n, workers, func(w, i int) {
		time.Sleep(s.delay)
		// A passed deadline cancels ctx from a timer goroutine that
		// may not have run yet; wait for it so the boundary check
		// sees every deadline that expired during the delay.
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			<-ctx.Done()
		}
		if ctx.Err() != nil {
			skipped.Store(true)
			return
		}
		fn(w, i)
	})
	if err == nil && skipped.Load() {
		err = ctx.Err()
	}
	return err
}

// TestDeadline: an expired per-request deadline surfaces as 504 with
// kind deadline, and the sweep stops at an item boundary. Every figure
// that dispatches work honours it too — only 5a and 5b, which dispatch
// nothing, finish inside the deadline.
func TestDeadline(t *testing.T) {
	s := New(Config{Engine: slowEngine{inner: engine.Serial, delay: 2 * time.Millisecond}, Workers: 1})
	check := func(name, path, reqBody string, want int) {
		t.Helper()
		rec := post(s, path, reqBody)
		if rec.Code != want {
			t.Errorf("%s: status = %d, want %d: %s", name, rec.Code, want, rec.Body.String())
			return
		}
		if want != http.StatusGatewayTimeout {
			return
		}
		body := decodeBody[ErrorBody](t, rec)
		if body.Kind != "deadline" {
			t.Errorf("%s: kind = %q, want deadline", name, body.Kind)
		}
		if body.Completed > body.N {
			t.Errorf("%s: completed %d > n %d", name, body.Completed, body.N)
		}
	}
	check("yield", "/v1/yield", `{"sigmas_nm": [0.05, 0.1], "samples": 10, "timeout_ms": 1}`, http.StatusGatewayTimeout)
	for _, key := range figures.Keys() {
		want := http.StatusGatewayTimeout
		if key == "5a" || key == "5b" {
			want = http.StatusOK
		}
		check("figure "+key, "/v1/figures/"+key, `{"grid": 2, "sweep": 2, "samples": 1, "timeout_ms": 1}`, want)
	}
}

func TestCacheHit(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	first := post(s, "/v1/ber", smallBER)
	if first.Code != http.StatusOK {
		t.Fatalf("first = %d: %s", first.Code, first.Body.String())
	}
	if xc := first.Header().Get("X-Cache"); xc != "miss" {
		t.Errorf("first X-Cache = %q, want miss", xc)
	}
	second := post(s, "/v1/ber", smallBER)
	if second.Code != http.StatusOK {
		t.Fatalf("second = %d", second.Code)
	}
	if xc := second.Header().Get("X-Cache"); xc != "hit" {
		t.Errorf("second X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit body differs from computed body")
	}
	if hits, _ := s.cache.Stats(); hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", hits)
	}
}

func TestHealthAndDrain(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	if rec := get(s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", rec.Code)
	}
	health := decodeBody[healthBody](t, get(s, "/healthz"))
	if health.Status != "ok" || health.Draining {
		t.Errorf("healthz before drain = %+v", health)
	}

	s.Drain(context.Background())
	s.Drain(context.Background()) // idempotent

	rec := get(s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", rec.Code)
	}
	if ready := decodeBody[readyBody](t, rec); ready.Ready || ready.Reason != "draining" {
		t.Errorf("readyz body = %+v", ready)
	}
	// Liveness stays green while draining; admissions are refused with
	// a typed 503.
	if rec := get(s, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", rec.Code)
	}
	rec = post(s, "/v1/ber", smallBER)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	body := decodeBody[ErrorBody](t, rec)
	if body.Kind != "draining" {
		t.Errorf("kind = %q, want draining", body.Kind)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 draining has no Retry-After header")
	}
}

const resumeYield = `{"sigmas_nm": [0.1], "samples": 120, "seed": 5}`

// TestDrainCheckpointResume is the crash-safety gate: drain a server
// mid-yield-sweep, restart (a fresh Server on the same checkpoint
// dir), re-POST, and require bytes identical to an uninterrupted run.
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()

	// Reference: uninterrupted run on a throwaway server.
	ref := post(New(Config{Engine: engine.Serial}), "/v1/yield", resumeYield)
	if ref.Code != http.StatusOK {
		t.Fatalf("reference run = %d: %s", ref.Code, ref.Body.String())
	}

	// The interrupted server runs each die slowly so the drain below
	// reliably lands mid-sweep; slowness changes scheduling only, so
	// the snapshot content still matches what Serial would produce.
	first := New(Config{
		Engine:  slowEngine{inner: engine.Serial, delay: time.Millisecond},
		Workers: 1, CheckpointDir: dir, CheckpointEvery: 1,
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(first, "/v1/yield", resumeYield) }()

	// Wait until at least one die has been snapshotted, then hard-drain
	// so the running sweep is cancelled at an item boundary.
	waitForCheckpoint(t, dir)
	hardCtx, cancel := context.WithCancel(context.Background())
	cancel()
	first.Drain(hardCtx)

	rec := <-done
	switch rec.Code {
	case http.StatusServiceUnavailable:
		if body := decodeBody[ErrorBody](t, rec); body.Kind != "draining" {
			t.Fatalf("interrupted kind = %q, want draining: %s", body.Kind, rec.Body.String())
		}
	case http.StatusOK:
		// The sweep beat the drain; resume still must serve identical
		// bytes below, just from a complete snapshot.
		t.Log("sweep completed before drain; exercising restart on a finished checkpoint")
	default:
		t.Fatalf("interrupted run = %d: %s", rec.Code, rec.Body.String())
	}

	// "Restart": a fresh server over the same checkpoint directory.
	second := New(Config{Engine: engine.Serial, CheckpointDir: dir, CheckpointEvery: 1})
	resumed := post(second, "/v1/yield", resumeYield)
	if resumed.Code != http.StatusOK {
		t.Fatalf("resumed run = %d: %s", resumed.Code, resumed.Body.String())
	}
	if !bytes.Equal(resumed.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("resumed body differs from uninterrupted run:\nresumed: %s\nref:     %s",
			resumed.Body.String(), ref.Body.String())
	}
}

// waitForCheckpoint blocks until a yield snapshot appears in dir, so
// the drain below is guaranteed to interrupt a sweep with progress on
// disk. It polls instead of sleeping a fixed time to stay fast and
// non-flaky on slow machines.
func waitForCheckpoint(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		matches, err := filepath.Glob(filepath.Join(dir, "yield-*.json"))
		if err != nil {
			t.Fatalf("globbing checkpoints: %v", err)
		}
		for _, m := range matches {
			if info, err := os.Stat(m); err == nil && info.Size() > 0 {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no checkpoint file appeared within 30s")
}

func TestImageEdgePGMFormat(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := post(s, "/v1/image/edge", `{"source": {"synth": "checkerboard", "width": 24, "height": 16}, "stream_len": 256, "format": "pgm"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/x-portable-graymap" {
		t.Errorf("content type = %q", ct)
	}
	g, err := img.ReadPGM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("response is not a valid PGM: %v", err)
	}
	if g.W != 24 || g.H != 16 {
		t.Errorf("result is %dx%d, want 24x16", g.W, g.H)
	}
}

// TestImageHostilePGMHeader: an upload whose 23-byte header claims a
// terabyte raster is a 400 bad_request, not an allocation that takes
// the process down, and the server answers the next request.
func TestImageHostilePGMHeader(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	upload := base64.StdEncoding.EncodeToString([]byte("P5 1000000 1000000 255\n"))
	rec := post(s, "/v1/image/edge", `{"source": {"pgm_base64": "`+upload+`"}, "stream_len": 64}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("hostile header = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if body := decodeBody[ErrorBody](t, rec); body.Kind != "bad_request" {
		t.Errorf("kind = %q, want bad_request", body.Kind)
	}
	rec = post(s, "/v1/image/edge", `{"source": {"synth": "checkerboard", "width": 24, "height": 16}, "stream_len": 64}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the hostile upload = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// flood is an n-byte prefix of an unterminated JSON document, produced
// on demand so a test can send a body far larger than it holds.
func flood(n int64) io.Reader {
	return io.LimitReader(io.MultiReader(strings.NewReader(`{"seed": "`), letters{}), n)
}

// letters streams an endless run of 'a'.
type letters struct{}

func (letters) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestOversizedBodyRejectedBeforeAdmission: a body over its endpoint's
// bound is a 400 bad_request naming the bound, decided before the
// request queues — with the queue saturated it is still 400, not 503.
// One byte over the bound with its Content-Length declared, the server
// rejects it unread; a chunked body 16 times the bound is read only up
// to the bound. Either way the server allocates far less than the body.
func TestOversizedBodyRejectedBeforeAdmission(t *testing.T) {
	s := New(Config{Engine: engine.Serial, Workers: 1, QueueDepth: 1})
	release := saturate(t, s)
	defer release()
	for _, c := range []struct {
		path  string
		limit int64
	}{
		{"/v1/ber", maxRequestBody},
		{"/v1/yield", maxRequestBody},
		{"/v1/figures/5a", maxRequestBody},
		{"/v1/image/gamma", maxImageBody},
		{"/v1/image/edge", maxImageBody},
	} {
		for _, size := range []int64{c.limit + 1, 16 * c.limit} {
			req := httptest.NewRequest(http.MethodPost, c.path, flood(size))
			req.ContentLength = size
			if size > c.limit+1 {
				req.ContentLength = -1 // chunked: no length to check up front
			}
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s, %d-byte body: status = %d, want 400: %s", c.path, size, rec.Code, rec.Body.String())
				continue
			}
			body := decodeBody[ErrorBody](t, rec)
			if body.Kind != "bad_request" || !strings.Contains(body.Error, strconv.FormatInt(c.limit, 10)) {
				t.Errorf("%s, %d-byte body: %+v, want bad_request naming the %d-byte bound", c.path, size, body, c.limit)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(size)/4 {
				t.Errorf("%s, %d-byte body: the rejection allocated %d bytes", c.path, size, alloc)
			}
		}
	}
}

// TestImageUploadAtPixelCap: a legal upload at the pixel cap, larger
// than the JSON endpoints' body bound, still answers 200 with the full
// image — and an upload at maxImageUpload bytes fits the image bound.
func TestImageUploadAtPixelCap(t *testing.T) {
	if n := int64(base64.StdEncoding.EncodedLen(maxImageUpload)); n+1024 > maxImageBody {
		t.Fatalf("an upload of maxImageUpload bytes is %d bytes of base64; the body bound %d leaves no envelope", n, maxImageBody)
	}
	var pgm bytes.Buffer
	if err := img.Gradient(2048, maxImagePixels/2048).WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}
	body := `{"source": {"pgm_base64": "` + base64.StdEncoding.EncodeToString(pgm.Bytes()) + `"}, "stream_len": 64, "format": "pgm"}`
	if len(body) <= maxRequestBody {
		t.Fatalf("upload body %d bytes: not past the JSON endpoints' bound", len(body))
	}
	rec := post(New(Config{Engine: engine.Serial}), "/v1/image/gamma", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("upload at the pixel cap = %d: %.200s", rec.Code, rec.Body.String())
	}
	g, err := img.ReadPGM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("response is not a valid PGM: %v", err)
	}
	if g.W*g.H != maxImagePixels {
		t.Errorf("result is %dx%d, want %d pixels", g.W, g.H, maxImagePixels)
	}
}

// TestImageSynthSizeOverflow: synthetic sizes whose pixel product
// overflows int are a 400, not a handler panic, and the server keeps
// serving.
func TestImageSynthSizeOverflow(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	for _, src := range []string{
		`{"synth": "gradient", "width": 4294967296, "height": 4294967296}`,     // 2³² × 2³²
		`{"synth": "radial", "width": 4611686018427387904, "height": 3}`,       // 2⁶² × 3
		`{"synth": "checkerboard", "width": 4611686018427387905, "height": 4}`, // (2⁶²+1) × 4
	} {
		rec := post(s, "/v1/image/edge", `{"source": `+src+`, "stream_len": 64}`)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", src, rec.Code, rec.Body.String())
			continue
		}
		if body := decodeBody[ErrorBody](t, rec); body.Kind != "bad_request" {
			t.Errorf("%s: kind = %q, want bad_request", src, body.Kind)
		}
	}
	rec := post(s, "/v1/image/edge", `{"source": {"synth": "checkerboard", "width": 24, "height": 16}, "stream_len": 64}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the oversized ones = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// countingEngine counts every item dispatched through it.
type countingEngine struct {
	inner engine.Engine
	items *atomic.Int64
}

func (c countingEngine) Name() string      { return "counting" }
func (c countingEngine) Workers(n int) int { return c.inner.Workers(n) }
func (c countingEngine) ForWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	return c.inner.ForWorkerCtx(ctx, n, workers, func(w, i int) {
		c.items.Add(1)
		fn(w, i)
	})
}

// TestImageGammaDispatchesOnConfigEngine: /v1/image/gamma builds its
// 256-level LUT and corrects its frame through Config.Engine — at
// least 257 items for one frame, none of them on a private pool.
func TestImageGammaDispatchesOnConfigEngine(t *testing.T) {
	var items atomic.Int64
	s := New(Config{Engine: countingEngine{inner: engine.Serial, items: &items}})
	rec := post(s, "/v1/image/gamma", `{"source": {"synth": "gradient", "width": 24, "height": 16}, "stream_len": 64}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if n := items.Load(); n < 257 {
		t.Errorf("gamma request dispatched %d items through Config.Engine, want >= 257 (256 LUT levels + 1 frame)", n)
	}
}

// TestImageGammaDeadline: the gamma LUT build honours the request
// deadline — on a slow engine a short timeout_ms stops the 256-level
// batch at an item boundary, a 504 whose n names that batch — and the
// cut-short build caches nothing, so the same recipe then succeeds.
func TestImageGammaDeadline(t *testing.T) {
	s := New(Config{Engine: slowEngine{inner: engine.Serial, delay: 2 * time.Millisecond}, Workers: 1})
	const src = `{"source": {"synth": "gradient", "width": 24, "height": 16}, "stream_len": 64`
	rec := post(s, "/v1/image/gamma", src+`, "timeout_ms": 50}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	body := decodeBody[ErrorBody](t, rec)
	if body.Kind != "deadline" || body.N != 256 {
		t.Errorf("body = %+v, want kind deadline with n = 256 (the LUT build)", body)
	}
	if rec := post(s, "/v1/image/gamma", src+`, "timeout_ms": 60000}`); rec.Code != http.StatusOK {
		t.Fatalf("retry after the deadline = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestImageGammaInfeasibleDesign: a gamma recipe no optical circuit
// can run — a comb wider than the filter's FSR, or an eye closed at
// the spacing — is a 400 bad_request decided before admission: with the
// single worker pinned and the queue slot taken, it still gets 400,
// not 503 queue_full. Once the queue clears, a valid request gets the
// bytes a fresh server serves.
func TestImageGammaInfeasibleDesign(t *testing.T) {
	const src = `{"source": {"synth": "gradient", "width": 24, "height": 16}, "stream_len": 64`
	want := post(New(Config{Engine: engine.Serial}), "/v1/image/gamma", src+`}`)
	if want.Code != http.StatusOK {
		t.Fatalf("reference status = %d: %s", want.Code, want.Body.String())
	}

	s := New(Config{Engine: engine.Serial, Workers: 1, QueueDepth: 1})
	release := saturate(t, s)

	for _, recipe := range []string{`, "degree": 17}`, `, "spacing_nm": 2}`, `, "spacing_nm": 0.1}`, `, "degree": 20, "spacing_nm": 0.2}`} {
		rec := post(s, "/v1/image/gamma", src+recipe)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("recipe %s: status = %d, want 400: %s", recipe, rec.Code, rec.Body.String())
			continue
		}
		if body := decodeBody[ErrorBody](t, rec); body.Kind != "bad_request" {
			t.Errorf("recipe %s: kind %q, want bad_request", recipe, body.Kind)
		}
	}
	release()

	rec := post(s, "/v1/image/gamma", src+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid request after the rejections = %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Error("valid request after the rejections served different bytes")
	}
}

func TestImageGammaJSON(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := post(s, "/v1/image/gamma", `{"source": {"synth": "gradient", "width": 24, "height": 16}, "stream_len": 512}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	body := decodeBody[imageBody](t, rec)
	if body.Op != "gamma" || body.Width != 24 || body.Height != 16 {
		t.Errorf("body header = %+v", body)
	}
	if body.PSNR == nil || *body.PSNR < 20 {
		t.Errorf("PSNR vs exact = %v dB, want a faithful correction (>= 20)", body.PSNR)
	}
	if body.PGMBase64 == "" {
		t.Error("missing pgm_base64 payload")
	}
}

// TestImageGammaExactPSNRIsNull: a small checkerboard whose stochastic
// gamma correction lands on the exact operator at this seed has
// infinite PSNR. It must answer 200 with psnr_db null and MAE 0, not a
// 500 from the JSON encoder.
func TestImageGammaExactPSNRIsNull(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	rec := post(s, "/v1/image/gamma", `{"source": {"synth": "checkerboard", "width": 8, "height": 8}, "stream_len": 1024, "seed": 73}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"psnr_db":null`)) {
		t.Errorf("body %s: want psnr_db null", rec.Body.String())
	}
	if body := decodeBody[imageBody](t, rec); body.PSNR != nil || body.MAE != 0 {
		t.Errorf("PSNR %v, MAE %g: want null and 0 for an exact result", body.PSNR, body.MAE)
	}
}

func TestTimeoutCappedByMax(t *testing.T) {
	s := New(Config{Engine: slowEngine{inner: engine.Serial, delay: 2 * time.Millisecond}, MaxTimeout: time.Millisecond})
	// Requesting an hour is silently capped to MaxTimeout: the job
	// deadline-expires rather than running unbounded.
	rec := post(s, "/v1/yield", `{"sigmas_nm": [0.05, 0.1], "samples": 10, "timeout_ms": 3600000}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
}

// TestErrorStatusMapping covers the error→status table directly,
// including the wrapped-Partial attributions that are awkward to
// produce end-to-end.
func TestErrorStatusMapping(t *testing.T) {
	idx := 3
	cases := []struct {
		name     string
		err      error
		status   int
		kind     string
		index    *int
		retryGT0 bool
	}{
		{"queue full", ErrQueueFull, 503, "queue_full", nil, true},
		{"draining", ErrDraining, 503, "draining", nil, true},
		{"deadline", context.DeadlineExceeded, 504, "deadline", nil, false},
		{"canceled", context.Canceled, 503, "draining", nil, true},
		{"partial deadline", &engine.Partial{N: 10, Completed: 4, Cause: context.DeadlineExceeded}, 504, "deadline", nil, false},
		{"panic", &engine.Partial{N: 10, Completed: 2, Cause: chaosPanicError(idx)}, 500, "panic", &idx, false},
		{"internal", fmt.Errorf("boom"), 500, "internal", nil, false},
	}
	for _, tc := range cases {
		status, body := errorStatus(tc.err)
		if status != tc.status || body.Kind != tc.kind {
			t.Errorf("%s: got (%d, %q), want (%d, %q)", tc.name, status, body.Kind, tc.status, tc.kind)
		}
		if tc.index != nil {
			if body.Index == nil || *body.Index != *tc.index {
				t.Errorf("%s: index = %v, want %d", tc.name, body.Index, *tc.index)
			}
		}
		if tc.retryGT0 && body.RetryAfterSec <= 0 {
			t.Errorf("%s: no Retry-After", tc.name)
		}
	}
}

// chaosPanicError produces a real *engine.PanicError the way a
// dispatch would: by capturing an injected panic.
func chaosPanicError(index int) error {
	chaos := enginetest.NewChaos("one-panic", engine.Serial, 1, enginetest.ChaosSpec{Panic: true, PanicAt: index})
	err := engine.ForCtx(context.Background(), chaos, index+1, func(i int) {})
	if err == nil {
		panic("chaos did not panic")
	}
	return err
}
