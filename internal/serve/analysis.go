package serve

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/figures"
	"repro/internal/transient"
)

// berRequest is the POST /v1/ber body. Exactly one of ProbeMW or
// TargetBER selects the probe powers swept; both empty means the
// paper's standard 1e-1..1e-4 targets.
type berRequest struct {
	ProbeMW   []float64 `json:"probe_mw,omitempty"`
	TargetBER []float64 `json:"target_ber,omitempty"`
	Bits      int       `json:"bits,omitempty"`
	Seed      uint64    `json:"seed,omitempty"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
}

// berPoint is one waterfall row.
type berPoint struct {
	ProbeMW     float64 `json:"probe_mw"`
	MeasuredBER float64 `json:"measured_ber"`
	AnalyticBER float64 `json:"analytic_ber"`
}

// berBody is the success response.
type berBody struct {
	Bits   int        `json:"bits"`
	Seed   uint64     `json:"seed"`
	Points []berPoint `json:"points"`
}

const (
	defaultBERBits = 200_000
	defaultBERSeed = 29
	maxBERBits     = 2_000_000
	maxBERPoints   = 64
)

func (s *Server) handleBER(w http.ResponseWriter, r *http.Request) {
	var req berRequest
	if err := decodeJSON(w, r, &req, maxRequestBody); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	if req.Bits == 0 {
		req.Bits = defaultBERBits
	}
	if req.Seed == 0 {
		req.Seed = defaultBERSeed
	}
	if len(req.TargetBER) == 0 && len(req.ProbeMW) == 0 {
		req.TargetBER = []float64{1e-1, 1e-2, 1e-3, 1e-4}
	}
	if err := validateBER(req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	base := core.PaperParams()
	powers := req.ProbeMW
	if len(powers) == 0 {
		c := core.MustCircuit(base)
		powers = make([]float64, len(req.TargetBER))
		for i, t := range req.TargetBER {
			powers[i] = c.MinProbePowerMW(t)
		}
	}

	ck := cacheKey("ber", configString("powers", powers, "bits", req.Bits), req.Seed, len(powers))
	s.runCached(w, r, ck, req.TimeoutMS, func(ctx context.Context) (entry, error) {
		pts, err := transient.BERWaterfallCtx(ctx, s.eng, base, powers, req.Bits, req.Seed)
		if err != nil {
			return entry{}, err
		}
		body := berBody{Bits: req.Bits, Seed: req.Seed, Points: make([]berPoint, len(pts))}
		for i, p := range pts {
			body.Points[i] = berPoint{ProbeMW: p.ProbeMW, MeasuredBER: p.MeasuredBER, AnalyticBER: p.AnalyticBER}
		}
		return jsonEntry(body)
	})
}

func validateBER(req berRequest) error {
	if len(req.ProbeMW) > 0 && len(req.TargetBER) > 0 {
		return fmt.Errorf("probe_mw and target_ber are mutually exclusive")
	}
	if n := len(req.ProbeMW) + len(req.TargetBER); n > maxBERPoints {
		return fmt.Errorf("%d waterfall points: max %d per request", n, maxBERPoints)
	}
	if req.Bits < 1 || req.Bits > maxBERBits {
		return fmt.Errorf("bits %d: need 1..%d", req.Bits, maxBERBits)
	}
	for _, p := range req.ProbeMW {
		if !(p > 0) {
			return fmt.Errorf("probe_mw %g: need > 0", p)
		}
	}
	for _, t := range req.TargetBER {
		if !(t > 0 && t < 0.5) {
			return fmt.Errorf("target_ber %g: need in (0, 0.5)", t)
		}
	}
	return nil
}

// yieldRequest is the POST /v1/yield body: the checkpointable
// process-variation campaign. Zero fields take the standard study
// shape (figures.YieldStudySpec). With "of" > 0 the request runs one
// shard of a horizontally partitioned campaign: only the dies shard
// "shard" of "of" owns (round-robin by die index) are computed, and
// the response carries the per-die outcomes with shard attribution
// instead of folded sigma rows — reassembled client-side (or via
// oscmerge on the server's shard-tagged checkpoints).
type yieldRequest struct {
	SigmasNM  []float64 `json:"sigmas_nm,omitempty"`
	Samples   int       `json:"samples,omitempty"`
	Seed      uint64    `json:"seed,omitempty"`
	TargetBER float64   `json:"target_ber,omitempty"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
	Shard     int       `json:"shard,omitempty"`
	Of        int       `json:"of,omitempty"`
}

// yieldPoint is one sigma row, flattened with explicit tags.
type yieldPoint struct {
	SigmaNM   float64 `json:"sigma_nm"`
	Samples   int     `json:"samples"`
	Pass      int     `json:"pass"`
	Yield     float64 `json:"yield"`
	MeanBER   float64 `json:"mean_ber"`
	WorstBER  float64 `json:"worst_ber"`
	MeanEyeMW float64 `json:"mean_eye_mw"`
}

// yieldBody is the success response. It carries no run-history fields
// (like a resumed-die count) on purpose: a resumed run's body must be
// byte-identical to an uninterrupted one.
type yieldBody struct {
	Seed      uint64       `json:"seed"`
	TargetBER float64      `json:"target_ber"`
	Points    []yieldPoint `json:"points"`
}

// yieldShardDie is one computed die of a shard response, attributed by
// its study-wide index so clients can reassemble shards by position.
type yieldShardDie struct {
	Index   int             `json:"index"`
	Outcome core.DieOutcome `json:"outcome"`
}

// yieldShardBody is the success response of a sharded yield request:
// shard attribution plus the owned dies. Like yieldBody it carries no
// run-history fields — a shard served from a resumed checkpoint is
// byte-identical to one computed in a single pass.
type yieldShardBody struct {
	Seed      uint64          `json:"seed"`
	TargetBER float64         `json:"target_ber"`
	Shard     int             `json:"shard"`
	Of        int             `json:"of"`
	N         int             `json:"n"`
	Completed int             `json:"completed"`
	Dies      []yieldShardDie `json:"dies"`
}

const (
	maxYieldSigmas  = 16
	maxYieldSamples = 1_000_000
	maxYieldShards  = 64
)

func (s *Server) handleYield(w http.ResponseWriter, r *http.Request) {
	var req yieldRequest
	if err := decodeJSON(w, r, &req, maxRequestBody); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	study := figures.YieldStudySpec(figures.Defaults().Samples)
	if req.Samples != 0 {
		study.Samples = req.Samples
	}
	if len(req.SigmasNM) != 0 {
		study.SigmasNM = req.SigmasNM
	}
	if req.Seed != 0 {
		study.Seed = req.Seed
	}
	if req.TargetBER != 0 {
		study.TargetBER = req.TargetBER
	}
	if err := validateYield(study); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}
	if err := validateYieldShard(req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Kind: "bad_request"})
		return
	}

	key := study.Key()
	if req.Of > 0 {
		// The cache key extends the study's content hash with the shard
		// spec: shards of one study share the key family (the study hash)
		// but cache independently.
		ck := fmt.Sprintf("%s|shard=%d/%d", key.Hash(), req.Shard, req.Of)
		s.runCached(w, r, ck, req.TimeoutMS, func(ctx context.Context) (entry, error) {
			dies, err := s.runYieldShard(ctx, study, key, req.Shard, req.Of)
			if err != nil {
				return entry{}, err
			}
			body := yieldShardBody{
				Seed:      study.Seed,
				TargetBER: study.TargetBER,
				Shard:     req.Shard,
				Of:        req.Of,
				N:         key.N,
				Dies:      []yieldShardDie{},
			}
			for i, d := range dies {
				if d != nil {
					body.Completed++
					body.Dies = append(body.Dies, yieldShardDie{Index: i, Outcome: *d})
				}
			}
			return jsonEntry(body)
		})
		return
	}
	s.runCached(w, r, key.Hash(), req.TimeoutMS, func(ctx context.Context) (entry, error) {
		points, err := s.runYield(ctx, study, key)
		if err != nil {
			return entry{}, err
		}
		body := yieldBody{Seed: study.Seed, TargetBER: study.TargetBER, Points: make([]yieldPoint, len(points))}
		for i, pt := range points {
			body.Points[i] = yieldPoint{
				SigmaNM:   pt.SigmaNM,
				Samples:   pt.Result.Samples,
				Pass:      pt.Result.Pass,
				Yield:     pt.Result.Yield,
				MeanBER:   pt.Result.MeanBER,
				WorstBER:  pt.Result.WorstBER,
				MeanEyeMW: pt.Result.MeanEyeMW,
			}
		}
		return jsonEntry(body)
	})
}

// runYield executes the study — checkpointed per content key when the
// server has a checkpoint directory, so a drain (or crash after the
// last snapshot cadence) mid-sweep leaves completed dies on disk and
// the client's retry after restart resumes instead of restarting.
func (s *Server) runYield(ctx context.Context, study dse.YieldStudy, key dse.CheckpointKey) ([]dse.YieldPoint, error) {
	if s.cfg.CheckpointDir == "" {
		return study.RunCtx(ctx, s.eng)
	}
	path := filepath.Join(s.cfg.CheckpointDir, "yield-"+key.Hash()[:16]+".json")
	cp := dse.NewCheckpointer[core.DieOutcome](path, s.cfg.CheckpointEvery, key)
	if _, err := cp.Load(); err != nil {
		return nil, err
	}
	return study.RunCheckpointed(ctx, s.eng, cp)
}

// runYieldShard computes shard k of n of the study, returning the
// per-die results indexed by study position (nil for dies the shard
// does not own). With a checkpoint directory the shard persists to its
// own shard-tagged snapshot — same content key as the study, so the
// file family merges with oscmerge — and a drained or crashed shard
// resumes on retry exactly like the unsharded path; without one the
// snapshot stays in memory. Either way an interruption reports the
// study's die count and this shard's finished dies.
func (s *Server) runYieldShard(ctx context.Context, study dse.YieldStudy, key dse.CheckpointKey, k, n int) ([]*core.DieOutcome, error) {
	cp := dse.NewCheckpointer[core.DieOutcome]("", s.cfg.CheckpointEvery, key)
	if s.cfg.CheckpointDir != "" {
		cp.Path = dse.ShardCheckpointPath(filepath.Join(s.cfg.CheckpointDir, "yield-"+key.Hash()[:16]+".json"), k, n)
		if _, err := cp.Load(); err != nil {
			return nil, err
		}
	}
	if err := cp.RunShard(ctx, s.eng, k, n, study.Die); err != nil {
		return nil, err
	}
	return cp.Results(), nil
}

// validateYieldShard checks the optional shard fields: "shard" without
// "of" is a loud error (never a silently unsharded run), and a spec
// must satisfy 0 <= shard < of within the shard cap.
func validateYieldShard(req yieldRequest) error {
	if req.Of == 0 {
		if req.Shard != 0 {
			return fmt.Errorf("shard %d without of: set of to the total shard count", req.Shard)
		}
		return nil
	}
	if req.Of < 1 || req.Of > maxYieldShards {
		return fmt.Errorf("of %d: need 1..%d shards", req.Of, maxYieldShards)
	}
	if req.Shard < 0 || req.Shard >= req.Of {
		return fmt.Errorf("shard %d: need in [0, %d)", req.Shard, req.Of)
	}
	return nil
}

func validateYield(study dse.YieldStudy) error {
	if n := len(study.SigmasNM); n < 1 || n > maxYieldSigmas {
		return fmt.Errorf("%d sigmas: need 1..%d", len(study.SigmasNM), maxYieldSigmas)
	}
	for _, sig := range study.SigmasNM {
		if !(sig >= 0) {
			return fmt.Errorf("sigma_nm %g: need >= 0", sig)
		}
	}
	if study.Samples < 1 || study.Samples > maxYieldSamples {
		return fmt.Errorf("samples %d: need 1..%d", study.Samples, maxYieldSamples)
	}
	if !(study.TargetBER > 0 && study.TargetBER < 0.5) {
		return fmt.Errorf("target_ber %g: need in (0, 0.5)", study.TargetBER)
	}
	return nil
}
