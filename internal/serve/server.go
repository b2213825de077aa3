package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	img "repro/internal/image"
)

// Config shapes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Engine dispatches every sweep; nil means engine.Default(). The
	// server wraps it in an engine.Limited shared across all jobs, so
	// concurrent requests never oversubscribe the machine.
	Engine engine.Engine
	// Slots caps concurrently running work items across all jobs
	// (default GOMAXPROCS).
	Slots int
	// Workers is the number of jobs executing concurrently (default 2);
	// QueueDepth is how many more may wait (default 8). Beyond
	// Workers+QueueDepth, admission fails with 503 queue_full.
	Workers    int
	QueueDepth int
	// DefaultTimeout bounds every job (0 = none); MaxTimeout caps the
	// per-request timeout_ms field (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheEntries bounds the content-addressed result cache (default
	// 256; negative disables caching).
	CacheEntries int
	// CheckpointDir, when set, makes long sweeps (POST /v1/yield)
	// snapshot to per-key files there, so a drained or crashed server
	// resumes them bit-identically on retry after restart.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in completed sweep items
	// (default 10).
	CheckpointEvery int
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.Engine == nil {
		c.Engine = engine.Default()
	}
	if c.Slots < 1 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 10
	}
	return c
}

// Server is the crash-safe simulation service: the figure registry,
// BER/yield analyses and gamma/edge image jobs behind a bounded job
// queue, a content-addressed result cache, per-request deadlines and
// graceful drain. See the package comment for the HTTP API.
type Server struct {
	cfg   Config
	eng   *engine.Limited
	queue *Queue
	cache *Cache
	mux   *http.ServeMux

	// lut amortizes gamma LUT construction across requests (same
	// recipe → one build), exactly like video frames share it.
	lut img.GammaLUTCache

	// writeErrs counts response-write failures (client gone mid-body);
	// there is no recovery path for them, so they surface in /healthz
	// instead of being dropped.
	writeErrs atomic.Int64
}

// New builds a Server; Start it by mounting it on an http.Server (it
// implements http.Handler) and stop it with Drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		eng:   engine.NewLimited("serve("+cfg.Engine.Name()+")", cfg.Engine, cfg.Slots),
		queue: NewQueue(cfg.Workers, cfg.QueueDepth),
		cache: NewCache(cfg.CacheEntries),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/figures", s.handleFigureList)
	s.mux.HandleFunc("POST /v1/figures/{key}", s.handleFigure)
	s.mux.HandleFunc("POST /v1/ber", s.handleBER)
	s.mux.HandleFunc("POST /v1/yield", s.handleYield)
	s.mux.HandleFunc("POST /v1/image/gamma", s.handleImage)
	s.mux.HandleFunc("POST /v1/image/edge", s.handleImage)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admissions (readyz flips to 503) and waits for accepted
// jobs. When hardCtx fires first, running jobs are cancelled so
// ctx-aware sweeps stop at an item boundary and checkpoint; Drain
// still waits for them to settle. Safe to call more than once.
func (s *Server) Drain(hardCtx context.Context) {
	s.queue.Drain(hardCtx)
}

// Engine returns the shared limited engine jobs dispatch on.
func (s *Server) Engine() engine.Engine { return s.eng }

// WriteErrors reports how many response writes have failed so far.
func (s *Server) WriteErrors() int64 { return s.writeErrs.Load() }

// healthBody is the /healthz JSON shape.
type healthBody struct {
	Status   string      `json:"status"`
	Draining bool        `json:"draining"`
	Queue    queueHealth `json:"queue"`
	Cache    cacheHealth `json:"cache"`
	Engine   string      `json:"engine"`
	// InFlight is the number of work items (not jobs) running in the
	// shared limited engine right now.
	InFlight    int   `json:"in_flight"`
	Slots       int   `json:"slots"`
	WriteErrors int64 `json:"write_errors"`
}

type queueHealth struct {
	Capacity int `json:"capacity"`
	Depth    int `json:"depth"`
	Running  int `json:"running"`
	Workers  int `json:"workers"`
}

type cacheHealth struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hits, misses := s.cache.Stats()
	s.writeJSON(w, http.StatusOK, healthBody{
		Status:   "ok",
		Draining: s.queue.Draining(),
		Queue: queueHealth{
			Capacity: s.queue.Capacity(),
			Depth:    s.queue.Depth(),
			Running:  s.queue.Running(),
			Workers:  s.cfg.Workers,
		},
		Cache:       cacheHealth{Entries: s.cache.Len(), Hits: hits, Misses: misses},
		Engine:      s.eng.Name(),
		InFlight:    s.eng.InFlight(),
		Slots:       s.eng.Slots(),
		WriteErrors: s.writeErrs.Load(),
	})
}

// readyBody is the /readyz JSON shape.
type readyBody struct {
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"`
	QueueDepth int    `json:"queue_depth"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.queue.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, readyBody{
			Ready: false, Reason: "draining", QueueDepth: s.queue.Depth(),
		})
		return
	}
	s.writeJSON(w, http.StatusOK, readyBody{Ready: true, QueueDepth: s.queue.Depth()})
}

// writeJSON encodes v with a status. Encode-to-wire failures (client
// gone mid-body) have no recovery path once the status line is sent;
// they are counted for /healthz rather than dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshal of our own response structs cannot fail on valid
		// float64/string/int fields; treat it as a write error if it
		// ever does and send a minimal fallback.
		s.writeErrs.Add(1)
		http.Error(w, `{"error":"response encoding failed","kind":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(data); err != nil {
		s.writeErrs.Add(1)
	}
}

// writeError maps err through errorStatus and writes the JSON body
// (plus Retry-After on retryable kinds).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, body := errorStatus(err)
	if body.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSec))
	}
	s.writeJSON(w, status, body)
}

// writeEntry writes a cached-or-fresh response entry; the X-Cache
// header reports which (headers are not part of the cached bytes, so
// hit and miss bodies stay byte-identical).
func (s *Server) writeEntry(w http.ResponseWriter, e entry, xcache string) {
	w.Header().Set("Content-Type", e.contentType)
	w.Header().Set("X-Cache", xcache)
	w.WriteHeader(e.status)
	if _, err := w.Write(e.body); err != nil {
		s.writeErrs.Add(1)
	}
}

// timeoutFor resolves the effective job deadline: the request's
// timeout_ms when set (capped at MaxTimeout), else DefaultTimeout.
func (s *Server) timeoutFor(requestMS int64) (time.Duration, error) {
	if requestMS < 0 {
		return 0, fmt.Errorf("timeout_ms %d: need >= 0", requestMS)
	}
	if requestMS == 0 {
		return s.cfg.DefaultTimeout, nil
	}
	d := time.Duration(requestMS) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// runCached is the one path every compute endpoint goes through:
// serve from the cache when the content address hits; otherwise admit
// onto the bounded queue (503 when full or draining), run the job
// under the resolved deadline, cache a successful response, and write
// it. job runs on a queue worker with a context that cancels on
// client deadline AND on hard drain.
func (s *Server) runCached(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, job func(ctx context.Context) (entry, error)) {
	timeout, err := s.timeoutFor(timeoutMS)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	if e, ok := s.cache.Get(key); ok {
		s.writeEntry(w, e, "hit")
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var res entry
	err = s.queue.Do(ctx, func(jctx context.Context) error {
		var jerr error
		res, jerr = job(jctx)
		return jerr
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.cache.Put(key, res)
	s.writeEntry(w, res, "miss")
}

// jsonEntry marshals a success body into a cacheable response entry.
func jsonEntry(v any) (entry, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return entry{}, fmt.Errorf("encoding response: %w", err)
	}
	return entry{status: http.StatusOK, contentType: "application/json", body: data}, nil
}

// maxRequestBody caps the body of every JSON endpoint but the image
// ones: the largest legal /v1/ber body (64 waterfall points) is under
// 2 KB.
const maxRequestBody = 64 << 10

// decodeJSON decodes an optional JSON request body of at most limit
// bytes into v: an empty body leaves v at its defaults; trailing
// garbage and unknown fields are rejected so typos fail loudly instead
// of running the wrong sweep. A body over the limit is rejected before
// it is read when its Content-Length says so, and after limit bytes
// otherwise, so an oversized request costs at most limit bytes of
// reading before its 400 — and never a queue slot.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	if r.ContentLength > limit {
		return bodyTooLarge(limit)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			return nil
		}
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return bodyTooLarge(limit)
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	// A second document in the body is a malformed request.
	if dec.More() {
		return fmt.Errorf("request body has trailing data")
	}
	return nil
}

// bodyTooLarge is the 400 message for a body over its endpoint's limit.
func bodyTooLarge(limit int64) error {
	return fmt.Errorf("request body over %d bytes", limit)
}
