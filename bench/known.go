package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
)

// knownFailure records a service failure on inputs the measured mix
// avoids, probed after the timed phase. A later fix shows as Failed
// dropping to zero.
type knownFailure struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Indices   []int  `json:"indices"`
	Error     string `json:"error,omitempty"`
}

func (kf *knownFailure) record(k, status int, body []byte) {
	if status == http.StatusOK {
		return
	}
	kf.Failed++
	kf.Indices = append(kf.Indices, k)
	kf.Error = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(body))
}

// gammaInfProbes is how many gamma-on-checkerboard requests
// probeGammaInf sends.
const gammaInfProbes = 64

// probeGammaInf sends gamma corrections of checkerboard sources: when
// the stochastic result matches the exact operator, PSNR is +Inf and
// the service answers 500 instead of encoding it. Which probes fail is
// fixed by the seed.
func probeGammaInf(ctx context.Context, e *env) (knownFailure, error) {
	kf := knownFailure{Name: "gamma_checkerboard_psnr_inf", Attempted: gammaInfProbes, Indices: []int{}}
	for k := 0; k < gammaInfProbes; k++ {
		req := imageRequest("gamma", "checkerboard", 64, 48, []int{256, 1024}[k%2], "json", poolSeed(mix(e.seed, 3, k)))
		status, body, _, err := e.target.do(ctx, 0, -1, req, true)
		if err != nil {
			return kf, fmt.Errorf("probe %d: %w", k, err)
		}
		kf.record(k, status, body)
	}
	return kf, nil
}

// yieldRacePairs is how many pairs of identical yield requests
// probeYieldRace sends.
const yieldRacePairs = 16

// probeYieldRace sends pairs of identical, uncached yield requests from
// both clients at once. With a checkpoint directory both jobs snapshot
// through the same temp file, and the slower rename fails with 500.
// The count depends on scheduling.
func probeYieldRace(ctx context.Context, e *env) (knownFailure, error) {
	kf := knownFailure{Name: "yield_same_key_checkpoint_race", Attempted: 2 * yieldRacePairs, Indices: []int{}}
	for k := 0; k < yieldRacePairs; k++ {
		req := yieldRequest(100, poolSeed(mix(e.seed, 6, k)))
		var out [clients]outcome
		var errs [clients]error
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var status int
				var body []byte
				status, body, _, errs[c] = e.target.do(ctx, c, -1, req, true)
				out[c] = outcome{status: status, body: body}
			}(c)
		}
		wg.Wait()
		for c := 0; c < clients; c++ {
			if errs[c] != nil {
				return kf, fmt.Errorf("pair %d: %w", k, errs[c])
			}
			kf.record(clients*k+c, out[c].status, out[c].body)
		}
	}
	return kf, nil
}
