package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/internal/core"
	img "repro/internal/image"
)

// imageSource selects the input image: a synthetic generator (sized
// here) or an uploaded binary PGM, base64-encoded. Exactly one of
// Synth and PGMBase64 must be set.
type imageSource struct {
	Synth  string `json:"synth,omitempty"` // gradient | radial | checkerboard
	Width  int    `json:"width,omitempty"`
	Height int    `json:"height,omitempty"`
	// Checkerboard shape (ignored by the other generators).
	Cell  int   `json:"cell,omitempty"`
	Dark  uint8 `json:"dark,omitempty"`
	Light uint8 `json:"light,omitempty"`

	PGMBase64 string `json:"pgm_base64,omitempty"`
}

// imageRequest is the POST /v1/image/{gamma,edge} body. Gamma, Degree
// and SpacingNM apply to the gamma endpoint only.
type imageRequest struct {
	Source    imageSource `json:"source"`
	Gamma     float64     `json:"gamma,omitempty"`
	Degree    int         `json:"degree,omitempty"`
	SpacingNM float64     `json:"spacing_nm,omitempty"`
	StreamLen int         `json:"stream_len,omitempty"`
	Seed      uint64      `json:"seed,omitempty"`
	// Format selects the response: "json" (default) wraps the result
	// as base64 PGM plus quality metrics; "pgm" streams the raw binary
	// PGM with content type image/x-portable-graymap.
	Format    string `json:"format,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// imageBody is the format:"json" success response. PSNR and MAE
// compare against the exact (float) operator applied to the same
// source, mirroring the paper's quality metrics. A result equal to the
// exact operator has infinite PSNR, which JSON cannot carry: it
// encodes as null (and MAE as 0).
type imageBody struct {
	Op        string   `json:"op"`
	Width     int      `json:"width"`
	Height    int      `json:"height"`
	PGMBase64 string   `json:"pgm_base64"`
	PSNR      *float64 `json:"psnr_db"`
	MAE       float64  `json:"mae"`
}

// finitePSNR is the psnr_db field: the value when finite, else null.
func finitePSNR(db float64) *float64 {
	if math.IsInf(db, 0) || math.IsNaN(db) {
		return nil
	}
	return &db
}

// Image caps: interactive work, bounded so one request cannot pin a
// worker for minutes.
const (
	maxImagePixels    = 1 << 22 // 4 Mpx
	maxImageStreamLen = 1 << 20
	maxImageUpload    = 8 << 20 // bytes of decoded PGM
	// maxImageBody is the request body cap: an upload at
	// maxImageUpload in base64 plus room for the JSON envelope.
	maxImageBody = (maxImageUpload+2)/3*4 + 4<<10

	defaultImageGamma     = 0.45
	defaultImageDegree    = 6
	defaultImageSpacingNM = 0.3
	defaultImageStreamLen = 1024
	defaultImageSeed      = 13
)

// handleImage serves both POST /v1/image/gamma and /v1/image/edge;
// the operator is the last path segment.
func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	op := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]
	var req imageRequest
	if err := decodeJSON(w, r, &req, maxImageBody); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	applyImageDefaults(&req)
	if err := validateImage(op, req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	src, srcDesc, err := resolveSource(req.Source)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}

	cfg := configString(
		"src", srcDesc, "gamma", req.Gamma, "degree", req.Degree,
		"spacing", req.SpacingNM, "stream", req.StreamLen, "format", req.Format,
	)
	ck := cacheKey("image/"+op, cfg, req.Seed, src.W*src.H)
	s.runCached(w, r, ck, req.TimeoutMS, func(ctx context.Context) (entry, error) {
		var out, exact *img.Gray
		var jerr error
		switch op {
		case "gamma":
			frames, ferr := img.GammaVideoCtx(ctx, s.eng, []*img.Gray{src},
				req.Gamma, req.Degree, req.SpacingNM, req.StreamLen, req.Seed, &s.lut)
			if ferr != nil {
				return entry{}, ferr
			}
			out, exact = frames[0], img.GammaExact(src, req.Gamma)
		case "edge":
			out, jerr = img.RobertsCrossSCOn(s.eng, src, req.StreamLen, req.Seed)
			if jerr != nil {
				return entry{}, jerr
			}
			exact = img.RobertsCrossExact(src)
		}
		if req.Format == "pgm" {
			return pgmEntry(out)
		}
		var pgm bytes.Buffer
		if werr := out.WritePGM(&pgm); werr != nil {
			return entry{}, werr
		}
		return jsonEntry(imageBody{
			Op:        op,
			Width:     out.W,
			Height:    out.H,
			PGMBase64: base64.StdEncoding.EncodeToString(pgm.Bytes()),
			PSNR:      finitePSNR(img.PSNR(exact, out)),
			MAE:       img.MeanAbsoluteError(exact, out),
		})
	})
}

// pgmEntry renders a result image as a raw binary PGM response.
func pgmEntry(g *img.Gray) (entry, error) {
	var buf bytes.Buffer
	if err := g.WritePGM(&buf); err != nil {
		return entry{}, err
	}
	return entry{status: http.StatusOK, contentType: "image/x-portable-graymap", body: buf.Bytes()}, nil
}

func applyImageDefaults(req *imageRequest) {
	if req.Gamma == 0 {
		req.Gamma = defaultImageGamma
	}
	if req.Degree == 0 {
		req.Degree = defaultImageDegree
	}
	if req.SpacingNM == 0 {
		req.SpacingNM = defaultImageSpacingNM
	}
	if req.StreamLen == 0 {
		req.StreamLen = defaultImageStreamLen
	}
	if req.Seed == 0 {
		req.Seed = defaultImageSeed
	}
	if req.Format == "" {
		req.Format = "json"
	}
	if req.Source.Synth != "" {
		if req.Source.Width == 0 {
			req.Source.Width = 64
		}
		if req.Source.Height == 0 {
			req.Source.Height = 48
		}
		if req.Source.Synth == "checkerboard" {
			if req.Source.Cell == 0 {
				req.Source.Cell = 6
			}
			if req.Source.Dark == 0 && req.Source.Light == 0 {
				req.Source.Dark, req.Source.Light = 40, 210
			}
		}
	}
}

func validateImage(op string, req imageRequest) error {
	if req.Format != "json" && req.Format != "pgm" {
		return fmt.Errorf("format %q: need json or pgm", req.Format)
	}
	if req.StreamLen < 1 || req.StreamLen > maxImageStreamLen {
		return fmt.Errorf("stream_len %d: need 1..%d", req.StreamLen, maxImageStreamLen)
	}
	if op == "gamma" {
		if !(req.Gamma > 0) {
			return fmt.Errorf("gamma %g: need > 0", req.Gamma)
		}
		if req.Degree < 1 || req.Degree > core.MaxOrder {
			return fmt.Errorf("degree %d: need 1..%d", req.Degree, core.MaxOrder)
		}
		if !(req.SpacingNM > 0) {
			return fmt.Errorf("spacing_nm %g: need > 0", req.SpacingNM)
		}
		// Resolve the optical design here, before the request queues:
		// a recipe no circuit can run is the client's error.
		if _, err := img.GammaDesign(req.Degree, req.SpacingNM); err != nil {
			return fmt.Errorf("degree %d at spacing_nm %g: no feasible optical design: %w", req.Degree, req.SpacingNM, err)
		}
	}
	return nil
}

// resolveSource materializes the input image and a deterministic
// textual descriptor for the cache key. Uploaded images are described
// by their full base64 text: the key hash absorbs it, so two uploads
// share a cache entry exactly when their bytes match.
func resolveSource(src imageSource) (*img.Gray, string, error) {
	switch {
	case src.Synth != "" && src.PGMBase64 != "":
		return nil, "", fmt.Errorf("source.synth and source.pgm_base64 are mutually exclusive")
	case src.PGMBase64 != "":
		raw, err := base64.StdEncoding.DecodeString(src.PGMBase64)
		if err != nil {
			return nil, "", fmt.Errorf("decoding source.pgm_base64: %w", err)
		}
		if len(raw) > maxImageUpload {
			return nil, "", fmt.Errorf("source image %d bytes: max %d", len(raw), maxImageUpload)
		}
		g, err := img.ReadPGM(bytes.NewReader(raw))
		if err != nil {
			return nil, "", fmt.Errorf("parsing source PGM: %w", err)
		}
		if g.W*g.H > maxImagePixels {
			return nil, "", fmt.Errorf("source image %dx%d: max %d pixels", g.W, g.H, maxImagePixels)
		}
		return g, "pgm:" + src.PGMBase64, nil
	case src.Synth != "":
		// Divide rather than multiply: a product of two huge sizes can
		// overflow int and slip under the cap.
		if src.Width < 1 || src.Height < 1 || src.Width > maxImagePixels/src.Height {
			return nil, "", fmt.Errorf("synth size %dx%d: need positive dims, max %d pixels", src.Width, src.Height, maxImagePixels)
		}
		desc := fmt.Sprintf("synth:%s:%dx%d:%d:%d:%d", src.Synth, src.Width, src.Height, src.Cell, src.Dark, src.Light)
		switch src.Synth {
		case "gradient":
			return img.Gradient(src.Width, src.Height), desc, nil
		case "radial":
			return img.Radial(src.Width, src.Height), desc, nil
		case "checkerboard":
			if src.Cell < 1 {
				return nil, "", fmt.Errorf("source.cell %d: need >= 1", src.Cell)
			}
			return img.Checkerboard(src.Width, src.Height, src.Cell, src.Dark, src.Light), desc, nil
		default:
			return nil, "", fmt.Errorf("source.synth %q: need gradient, radial or checkerboard", src.Synth)
		}
	default:
		return nil, "", fmt.Errorf("source needs synth or pgm_base64")
	}
}
