package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// outcome is the status and body an op produced.
type outcome struct {
	status int
	body   []byte
}

// oracle answers op i the way the reference system does.
type oracle func(ctx context.Context, c, i int) (outcome, error)

// verify compares every kept body against the oracle's answer for the
// same op, two ops at a time, and returns the indices that differ.
func verify(ctx context.Context, ops []opResult, want oracle) ([]int, error) {
	var checked []opResult
	for _, op := range ops {
		if op.kept {
			checked = append(checked, op)
		}
	}
	bad := make([]bool, len(checked))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(checked); k += clients {
				op := checked[k]
				got, err := want(ctx, c, op.index)
				if err != nil {
					errs[c] = fmt.Errorf("replaying op %d: %w", op.index, err)
					return
				}
				bad[k] = got.status != op.status || !bytes.Equal(got.body, op.body)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []int
	for k, b := range bad {
		if b {
			out = append(out, checked[k].index)
		}
	}
	return out, nil
}

// digestIndices are the op indices outcome_sha256 covers.
func digestIndices(w *workload) []int {
	var out []int
	for i := 0; i < w.digestN; i += w.checkEvery {
		out = append(out, i)
	}
	return out
}

// outcomeDigest hashes (index, status, body) over the digest indices.
// Indices the timed phase did not reach are fetched from fill, so the
// digest depends only on the commit and the seed.
func outcomeDigest(ctx context.Context, w *workload, ops []opResult, fill oracle) (string, error) {
	h := sha256.New()
	for _, i := range digestIndices(w) {
		var o outcome
		if i < len(ops) && ops[i].index == i && ops[i].kept {
			o = outcome{status: ops[i].status, body: ops[i].body}
		} else {
			var err error
			if o, err = fill(ctx, 0, i); err != nil {
				return "", fmt.Errorf("digest op %d: %w", i, err)
			}
		}
		fmt.Fprintf(h, "%d %d %d\n", i, o.status, len(o.body))
		h.Write(o.body)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
