package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/figures"
)

// figureInfo is one row of the GET /v1/figures listing.
type figureInfo struct {
	Key   string `json:"key"`
	Title string `json:"title"`
}

// figureListBody is the GET /v1/figures response.
type figureListBody struct {
	Figures []figureInfo `json:"figures"`
}

// handleFigureList reports the registry, sorted by key so the listing
// is deterministic.
func (s *Server) handleFigureList(w http.ResponseWriter, _ *http.Request) {
	var body figureListBody
	for _, key := range figures.SortedKeys() {
		f, _ := figures.Get(key)
		body.Figures = append(body.Figures, figureInfo{Key: f.Key, Title: f.Title})
	}
	s.writeJSON(w, http.StatusOK, body)
}

// figureRequest is the POST /v1/figures/{key} body; every field is
// optional (zero = registry default).
type figureRequest struct {
	Grid      int   `json:"grid,omitempty"`
	Sweep     int   `json:"sweep,omitempty"`
	Samples   int   `json:"samples,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// figureBody is the success response: the figure's deterministic text
// rendering, identical on every engine at every worker count.
type figureBody struct {
	Figure string `json:"figure"`
	Title  string `json:"title"`
	Output string `json:"output"`
}

// Request caps: a figure render is interactive work, not a bulk
// campaign; bulk shapes belong on /v1/yield where they checkpoint.
const (
	maxFigureGrid    = 64
	maxFigureSweep   = 256
	maxFigureSamples = 100_000
)

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	fig, ok := figures.Get(key)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorBody{
			Error: fmt.Sprintf("unknown figure %q (available: %s)", key, strings.Join(figures.SortedKeys(), ", ")),
			Kind:  "not_found",
		})
		return
	}
	var req figureRequest
	if err := decodeJSON(w, r, &req, maxRequestBody); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	cfg := figures.Defaults()
	if req.Grid != 0 {
		cfg.GridN = req.Grid
	}
	if req.Sweep != 0 {
		cfg.SweepN = req.Sweep
	}
	if req.Samples != 0 {
		cfg.Samples = req.Samples
	}
	if err := cfg.Validate(); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	if cfg.GridN > maxFigureGrid || cfg.SweepN > maxFigureSweep || cfg.Samples > maxFigureSamples {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: fmt.Sprintf("request exceeds figure caps (grid <= %d, sweep <= %d, samples <= %d)",
				maxFigureGrid, maxFigureSweep, maxFigureSamples),
			Kind: "bad_request",
		})
		return
	}
	cfg.Engine = s.eng

	ck := cacheKey("figure/"+key, configString("grid", cfg.GridN, "sweep", cfg.SweepN, "samples", cfg.Samples), 0, 1)
	s.runCached(w, r, ck, req.TimeoutMS, func(ctx context.Context) (entry, error) {
		var out bytes.Buffer
		if err := fig.Render(ctx, &out, cfg); err != nil {
			return entry{}, err
		}
		return jsonEntry(figureBody{Figure: fig.Key, Title: fig.Title, Output: out.String()})
	})
}
