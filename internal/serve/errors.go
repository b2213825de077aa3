package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/engine"
)

// ErrorBody is the JSON shape of every non-2xx response. Kind is the
// machine-readable discriminator:
//
//	bad_request — malformed or out-of-range request (400)
//	not_found   — unknown figure or route (404)
//	queue_full  — admission control rejected the job; retry after
//	              Retry-After seconds (503)
//	draining    — the server is shutting down; retry against a fresh
//	              instance (503)
//	deadline    — the request deadline expired mid-sweep; N/Completed
//	              report how far the sweep got before stopping at an
//	              item boundary (504)
//	panic       — a work item panicked; Index names the faulting item
//	              and the server keeps serving other requests (500)
//	internal    — anything else (500)
type ErrorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// N and Completed carry engine.Partial sweep attribution for
	// deadline/panic kinds.
	N         int `json:"n,omitempty"`
	Completed int `json:"completed,omitempty"`
	// Index is the faulting work item of a panic kind.
	Index *int `json:"index,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on retryable kinds.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Retry-After values, in seconds: a full queue clears as fast as one
// job; a draining server needs a restart or a peer.
const (
	retryAfterFull     = 1
	retryAfterDraining = 5
)

// errorStatus maps a job or admission error to its HTTP status and
// JSON body. The mapping is total: anything unrecognized is a 500
// internal.
func errorStatus(err error) (int, ErrorBody) {
	var pe *engine.PanicError
	var partial *engine.Partial

	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable, ErrorBody{
			Error: err.Error(), Kind: "queue_full", RetryAfterSec: retryAfterFull,
		}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, ErrorBody{
			Error: err.Error(), Kind: "draining", RetryAfterSec: retryAfterDraining,
		}
	case errors.As(err, &pe):
		// A faulting work item: typed 500 naming the index (engine
		// dispatch attributes the real item; -1 means the panic escaped
		// outside any dispatch). Sweep attribution rides along when the
		// panic came wrapped in a Partial.
		idx := pe.Index
		body := ErrorBody{Error: err.Error(), Kind: "panic", Index: &idx}
		if errors.As(err, &partial) {
			body.N, body.Completed = partial.N, partial.Completed
		}
		return http.StatusInternalServerError, body
	case errors.Is(err, context.DeadlineExceeded):
		body := ErrorBody{Error: err.Error(), Kind: "deadline"}
		if errors.As(err, &partial) {
			body.N, body.Completed = partial.N, partial.Completed
		}
		return http.StatusGatewayTimeout, body
	case errors.Is(err, context.Canceled):
		// A canceled (not deadline-expired) sweep means the server went
		// into hard drain mid-job (a client that vanished never reads
		// this body). The work that completed is checkpointed when the
		// endpoint supports it, so a retry resumes rather than restarts.
		body := ErrorBody{Error: err.Error(), Kind: "draining", RetryAfterSec: retryAfterDraining}
		if errors.As(err, &partial) {
			body.N, body.Completed = partial.N, partial.Completed
		}
		return http.StatusServiceUnavailable, body
	default:
		return http.StatusInternalServerError, ErrorBody{Error: err.Error(), Kind: "internal"}
	}
}
