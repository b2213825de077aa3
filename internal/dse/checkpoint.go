package dse

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/engine"
)

// checkpointVersion is bumped whenever the on-disk layout changes; a
// mismatched version fails closed like a mismatched hash.
const checkpointVersion = 1

// ErrStaleCheckpoint reports a checkpoint written by a different
// (figure, config, seed, n) — resuming from it would silently mix
// incompatible results, so Load refuses.
var ErrStaleCheckpoint = errors.New("dse: checkpoint does not match this run (stale or foreign)")

// CheckpointKey identifies what a checkpoint belongs to. Two runs with
// the same key produce bit-identical per-point results (the sweep
// contract), which is exactly the condition under which resuming is
// sound; everything in the key is hashed into the file header so a
// stale checkpoint fails closed instead of corrupting a run.
type CheckpointKey struct {
	// Figure names the sweep (e.g. "yield").
	Figure string `json:"figure"`
	// Config is a deterministic rendering of every parameter that
	// affects point results.
	Config string `json:"config"`
	// Seed is the sweep's base seed.
	Seed uint64 `json:"seed"`
	// N is the total point count.
	N int `json:"n"`
}

// Hash is the content hash Load verifies: sha256 over the key's
// fields with unambiguous separators.
func (k CheckpointKey) Hash() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%q|%q|%d|%d", checkpointVersion, k.Figure, k.Config, k.Seed, k.N)))
	return hex.EncodeToString(h[:])
}

// checkpointFile is the on-disk JSON layout: the verified header plus
// one entry per point, null where the point has not completed.
// float64 round-trips JSON exactly (shortest-representation marshal),
// so restored results are bit-identical to freshly computed ones.
type checkpointFile[T any] struct {
	Version int           `json:"version"`
	Hash    string        `json:"hash"`
	Key     CheckpointKey `json:"key"`
	Results []*T          `json:"results"`
}

// Checkpointer runs an n-point sweep, or one shard of it, with
// periodic durable snapshots, so an interrupted run (SIGINT, deadline,
// crash short of the last save) resumes by re-running only the missing
// points. Point i's result must depend on (key, i) alone — the
// DeriveSeed discipline every sweep in this repo already follows —
// which makes the resumed assembly, and the merge of a shard family,
// bit-identical to an uninterrupted run.
type Checkpointer[T any] struct {
	// Path is the checkpoint file; saves go through an adjacent temp
	// file and an atomic rename, so a crash mid-save leaves the
	// previous snapshot intact. An empty Path keeps the snapshot in
	// memory: nothing is saved and Load restores nothing.
	Path string
	// Every is the save cadence in completed points (count-based, so
	// cadence is deterministic); <= 0 disables periodic saves, leaving
	// only the final and on-interrupt ones.
	Every int
	// Key identifies and guards the run.
	Key CheckpointKey

	mu      sync.Mutex
	results []*T
	fresh   int // completions since the last save
}

// NewCheckpointer builds a checkpointer writing to path every `every`
// completed points.
func NewCheckpointer[T any](path string, every int, key CheckpointKey) *Checkpointer[T] {
	return &Checkpointer[T]{Path: path, Every: every, Key: key}
}

// Load reads a prior snapshot into the checkpointer, returning how
// many points it restored. A missing file is a clean zero-restore; a
// file whose header hash (or version, or length) does not match the
// key fails closed with ErrStaleCheckpoint in the chain.
func (c *Checkpointer[T]) Load() (restored int, err error) {
	data, err := os.ReadFile(c.Path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("dse: reading checkpoint: %w", err)
	}
	var f checkpointFile[T]
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("dse: corrupt checkpoint %s: %w", c.Path, err)
	}
	if f.Version != checkpointVersion || f.Hash != c.Key.Hash() || len(f.Results) != c.Key.N {
		return 0, fmt.Errorf("dse: %s (key %+v vs stored %+v): %w", c.Path, c.Key, f.Key, ErrStaleCheckpoint)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = f.Results
	for _, r := range c.results {
		if r != nil {
			restored++
		}
	}
	return restored, nil
}

// record stores point i's result and saves a snapshot when the
// cadence is due. It is the only write path during a dispatch, so the
// dispatch closure itself stays allocation-free.
func (c *Checkpointer[T]) record(i int, v T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[i] = &v
	c.fresh++
	if c.Every > 0 && c.fresh >= c.Every {
		if err := c.saveLocked(); err != nil {
			return err
		}
		c.fresh = 0
	}
	return nil
}

// Save writes a snapshot now (atomic temp-file + rename).
func (c *Checkpointer[T]) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked()
}

func (c *Checkpointer[T]) saveLocked() error {
	if c.Path == "" {
		return nil
	}
	f := checkpointFile[T]{
		Version: checkpointVersion,
		Hash:    c.Key.Hash(),
		Key:     c.Key,
		Results: c.results,
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("dse: marshaling checkpoint: %w", err)
	}
	if err := writeAtomic(c.Path, data); err != nil {
		return fmt.Errorf("dse: writing checkpoint: %w", err)
	}
	return nil
}

// writeAtomic commits data to path through a temp file of its own,
// created beside path and renamed over it. Readers see one whole
// snapshot or another, never a torn one; and because no two writes
// share a temp name, concurrent writers of one path (two identical
// in-flight studies) cannot rename each other's file away. The temp
// file is removed when any step fails.
func writeAtomic(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, os.Remove(f.Name()))
		}
	}()
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Chmod(0o644); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Run executes the whole sweep — RunShard's one shard of one, with
// its snapshots and interruption report — and on success returns the
// complete, index-ordered results.
func (c *Checkpointer[T]) Run(ctx context.Context, e engine.Engine, point func(i int) T) ([]T, error) {
	if err := c.RunShard(ctx, e, 0, 1, point); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]T, c.Key.N)
	for i, r := range c.results {
		out[i] = *r
	}
	return out, nil
}

// RunShard executes shard k of n of the sweep: point(i) for every
// point i the shard owns (i%n == k) that is not already restored,
// dispatched on e under ctx, with snapshots at the configured cadence
// and one final save. It returns nil once every owned point is in the
// snapshot; Results reports them, and MergeCheckpoints reassembles a
// family's snapshots into the whole sweep. On interruption (or a
// panicking point) it saves what completed and returns a
// *engine.Partial indexed by point over the whole sweep — resuming
// later with a Load-ed checkpointer re-runs only the gap. A shard
// outside 0 <= k < n is an error before anything is dispatched.
func (c *Checkpointer[T]) RunShard(ctx context.Context, e engine.Engine, k, n int, point func(i int) T) error {
	if err := engine.Check(e); err != nil {
		return err
	}
	if k < 0 || k >= n {
		return fmt.Errorf("dse: shard %d/%d: need 0 <= k < n", k, n)
	}
	if c.Key.N < 0 {
		return fmt.Errorf("dse: checkpoint key has negative N %d", c.Key.N)
	}
	c.mu.Lock()
	if c.results == nil {
		c.results = make([]*T, c.Key.N)
	}
	// The dispatch runs over the missing owned points, so position j
	// is not point j: missing maps one to the other.
	missing := make([]int, 0, c.Key.N/n+1)
	for i, r := range c.results {
		if r == nil && i%n == k {
			missing = append(missing, i)
		}
	}
	c.mu.Unlock()

	var firstSaveErr error
	var saveErrMu sync.Mutex
	dispatchErr := engine.RunCtx(ctx, e, len(missing), nil, func(j int) {
		i := missing[j]
		if err := c.record(i, point(i)); err != nil {
			saveErrMu.Lock()
			if firstSaveErr == nil {
				firstSaveErr = err
			}
			saveErrMu.Unlock()
		}
	})

	if err := c.Save(); err != nil {
		return err
	}
	if firstSaveErr != nil {
		return firstSaveErr
	}
	if dispatchErr != nil {
		return c.partial(dispatchErr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, i := range missing {
		if c.results[i] == nil {
			return fmt.Errorf("dse: checkpoint run left point %d unset without an error", i)
		}
	}
	return nil
}

// Results returns a copy of the per-point snapshot state: entry i is
// nil while point i has not completed, valid otherwise. It is how a
// RunShard caller reads the shard's points.
func (c *Checkpointer[T]) Results() []*T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.results == nil {
		return make([]*T, c.Key.N)
	}
	out := make([]*T, len(c.results))
	copy(out, c.results)
	return out
}

// partial translates a dispatch error (whose Done bitmap indexes the
// missing-point subset) into a *engine.Partial indexed by point.
func (c *Checkpointer[T]) partial(cause error) error {
	var p *engine.Partial
	if errors.As(cause, &p) {
		cause = p.Cause
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make([]bool, c.Key.N)
	completed := 0
	for i, r := range c.results {
		if r != nil {
			done[i] = true
			completed++
		}
	}
	return &engine.Partial{N: c.Key.N, Completed: completed, Done: done, Cause: cause}
}
