package serve

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
)

// shardYieldReq builds the sharded request body for the small study
// the shard tests share (2 sigmas x 6 dies = 12 points over 3 shards).
func shardYieldReq(k, n int) string {
	return fmt.Sprintf(`{"sigmas_nm": [0.05, 0.1], "samples": 6, "shard": %d, "of": %d}`, k, n)
}

// TestYieldShardsReassembleToUnshardedRun: the union of the shard
// responses covers every die exactly once with outcomes that fold to
// the unsharded response — the service-side version of the oscmerge
// equivalence gate.
func TestYieldShardsReassembleToUnshardedRun(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	ref := post(s, "/v1/yield", `{"sigmas_nm": [0.05, 0.1], "samples": 6}`)
	if ref.Code != http.StatusOK {
		t.Fatalf("unsharded yield = %d: %s", ref.Code, ref.Body.String())
	}
	refBody := decodeBody[yieldBody](t, ref)

	study := figures.YieldStudySpec(6)
	study.SigmasNM = []float64{0.05, 0.1}
	n := study.N()
	dies := make([]core.DieOutcome, n)
	seen := make([]bool, n)
	for k := 0; k < 3; k++ {
		rec := post(s, "/v1/yield", shardYieldReq(k, 3))
		if rec.Code != http.StatusOK {
			t.Fatalf("shard %d/3 = %d: %s", k, rec.Code, rec.Body.String())
		}
		body := decodeBody[yieldShardBody](t, rec)
		if body.Shard != k || body.Of != 3 || body.N != n {
			t.Errorf("shard %d attribution = %d/%d over %d, want %d/3 over %d", k, body.Shard, body.Of, body.N, k, n)
		}
		if body.Completed != len(body.Dies) {
			t.Errorf("shard %d: completed %d but %d dies", k, body.Completed, len(body.Dies))
		}
		for _, d := range body.Dies {
			if d.Index < 0 || d.Index >= n {
				t.Fatalf("shard %d returned out-of-range die %d", k, d.Index)
			}
			if seen[d.Index] {
				t.Errorf("die %d returned by two shards", d.Index)
			}
			seen[d.Index] = true
			dies[d.Index] = d.Outcome
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("die %d returned by no shard", i)
		}
	}
	points, err := study.Fold(dies)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		got := refBody.Points[i]
		if pt.Result.Yield != got.Yield || pt.Result.WorstBER != got.WorstBER || pt.Result.MeanEyeMW != got.MeanEyeMW {
			t.Errorf("sigma %g: reassembled %+v diverges from unsharded %+v", pt.SigmaNM, pt.Result, got)
		}
	}
}

// TestYieldShardCheckpointedMatchesDirect: with a checkpoint directory
// the shard persists a shard-tagged snapshot, and the response stays
// byte-identical to a server with no checkpointing at all — resumed
// and uninterrupted shards are indistinguishable to clients.
func TestYieldShardCheckpointedMatchesDirect(t *testing.T) {
	direct := post(New(Config{Engine: engine.Serial}), "/v1/yield", shardYieldReq(1, 3))
	if direct.Code != http.StatusOK {
		t.Fatalf("direct shard = %d: %s", direct.Code, direct.Body.String())
	}

	dir := t.TempDir()
	s := New(Config{Engine: engine.Serial, CheckpointDir: dir})
	ck := post(s, "/v1/yield", shardYieldReq(1, 3))
	if ck.Code != http.StatusOK {
		t.Fatalf("checkpointed shard = %d: %s", ck.Code, ck.Body.String())
	}
	if ck.Body.String() != direct.Body.String() {
		t.Errorf("checkpointed shard body differs from direct:\n ck: %s\ndir: %s", ck.Body.String(), direct.Body.String())
	}
	matches, err := filepath.Glob(filepath.Join(dir, "yield-*.shard1of3.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("shard-tagged snapshot: matches=%v err=%v", matches, err)
	}
	// A fresh server on the same directory resumes from the snapshot:
	// same bytes again, without recomputing (the snapshot is complete,
	// so even a die-counting engine would see zero work — asserted by
	// the byte identity under a fresh cache).
	s2 := New(Config{Engine: engine.Serial, CheckpointDir: dir})
	re := post(s2, "/v1/yield", shardYieldReq(1, 3))
	if re.Body.String() != direct.Body.String() {
		t.Errorf("resumed shard body differs from direct")
	}
}

// TestYieldShardValidation: malformed shard fields are 400s, never a
// silently unsharded (or wrongly sharded) run.
func TestYieldShardValidation(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	cases := []struct{ name, body string }{
		{"shard without of", `{"shard": 1}`},
		{"shard == of", `{"shard": 3, "of": 3}`},
		{"negative shard", `{"shard": -1, "of": 2}`},
		{"negative of", `{"of": -2}`},
		{"of over cap", `{"shard": 0, "of": 1000}`},
	}
	for _, tc := range cases {
		rec := post(s, "/v1/yield", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if body := decodeBody[ErrorBody](t, rec); body.Kind != "bad_request" {
			t.Errorf("%s: kind = %q, want bad_request", tc.name, body.Kind)
		}
	}
}

// TestYieldShardCachesPerShard: different shards of one study cache
// independently and the unsharded entry is untouched — the shard spec
// extends the content address rather than replacing it.
func TestYieldShardCachesPerShard(t *testing.T) {
	s := New(Config{Engine: engine.Serial})
	s0 := post(s, "/v1/yield", shardYieldReq(0, 3))
	s1 := post(s, "/v1/yield", shardYieldReq(1, 3))
	if s0.Body.String() == s1.Body.String() {
		t.Error("shards 0 and 1 returned identical bodies — cache key ignores the shard")
	}
	if got := post(s, "/v1/yield", shardYieldReq(0, 3)); got.Body.String() != s0.Body.String() {
		t.Error("shard 0 repost diverges from its first response")
	}
	full := post(s, "/v1/yield", `{"sigmas_nm": [0.05, 0.1], "samples": 6}`)
	if full.Code != http.StatusOK {
		t.Fatalf("unsharded after shards = %d", full.Code)
	}
	if body := decodeBody[yieldBody](t, full); len(body.Points) != 2 {
		t.Errorf("unsharded response after sharded posts has %d points, want 2", len(body.Points))
	}
}

// TestYieldShardDeadline: a shard cut short by its deadline answers
// 504 with the study's die count as n and this shard's finished dies
// as completed, with and without a checkpoint directory. The study has
// 120 dies, 40 of them shard 1/3's; at 2 ms per die the 40 ms deadline
// stops the shard well before its last die.
func TestYieldShardDeadline(t *testing.T) {
	slow := slowEngine{inner: engine.Serial, delay: 2 * time.Millisecond}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"direct", Config{Engine: slow, Workers: 1}},
		{"checkpointed", Config{Engine: slow, Workers: 1, CheckpointDir: t.TempDir()}},
	} {
		rec := post(New(tc.cfg), "/v1/yield", `{"sigmas_nm": [0.05, 0.1], "samples": 60, "shard": 1, "of": 3, "timeout_ms": 40}`)
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s: status = %d, want 504: %s", tc.name, rec.Code, rec.Body.String())
			continue
		}
		body := decodeBody[ErrorBody](t, rec)
		if body.Kind != "deadline" || body.N != 120 || body.Completed < 1 || body.Completed >= 40 {
			t.Errorf("%s: body = %+v, want kind deadline, n 120 (the study) and completed in [1, 40) (this shard's dies)", tc.name, body)
		}
	}
}
