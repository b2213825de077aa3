package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ShardCheckpointPath derives the shard-tagged snapshot path for shard
// k of n from the study's checkpoint path: "yield.json" becomes
// "yield.shard0of3.json". The content-hash key inside the file stays
// the study's (the shard is not part of the key — shards of one study
// are one key family), so the tag is what keeps concurrent shard
// processes from clobbering one snapshot file.
func ShardCheckpointPath(path string, k, n int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.shard%dof%d%s", strings.TrimSuffix(path, ext), k, n, ext)
}

// mergeFile is checkpointFile with opaque entries: merging is a
// header-checked index union, so the point type never needs decoding —
// raw entries carry the original bytes through bit-identically.
type mergeFile struct {
	Version int                `json:"version"`
	Hash    string             `json:"hash"`
	Key     CheckpointKey      `json:"key"`
	Results []*json.RawMessage `json:"results"`
}

// MergeReport summarizes a successful merge for CLI output.
type MergeReport struct {
	// Key is the shared study key of every input.
	Key CheckpointKey
	// N is the study size; Merged counts distinct completed points in
	// the output (== N, since a merge with gaps fails).
	N, Merged int
	// PerInput counts the completed points each input contributed
	// (overlapping agreements count for every file carrying them).
	PerInput []int
	// Overlap counts index collisions that agreed byte-for-byte.
	Overlap int
}

// MergeCheckpoints merges shard checkpoint snapshots into one complete
// study checkpoint at outPath, written atomically in Checkpointer's
// format — byte-identical to the snapshot an unsharded run of the same
// key would save, so `-resume` from the merged file replays nothing
// and renders the study exactly as one process would have.
//
// Every failure mode of a distributed run fails the merge closed:
//
//   - an input whose version, header hash, or length is inconsistent
//     with itself or with the first input (a stale or foreign shard,
//     or shards of two different studies);
//   - two inputs claiming the same index with different bytes (a
//     nondeterministic or corrupted shard — the determinism contract
//     says equal keys are equal bytes, so disagreement is never safe
//     to pick a winner from);
//   - indices no input completed (a shard never ran or was interrupted
//     — resume it, don't paper over the gap).
func MergeCheckpoints(outPath string, inputs []string) (MergeReport, error) {
	if len(inputs) == 0 {
		return MergeReport{}, fmt.Errorf("dse: merge needs at least one checkpoint")
	}
	var key CheckpointKey
	var hash string
	var merged []*json.RawMessage
	from := make([]string, 0) // from[i]: which input filled index i
	report := MergeReport{PerInput: make([]int, len(inputs))}
	for fi, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			return MergeReport{}, fmt.Errorf("dse: reading shard checkpoint: %w", err)
		}
		var f mergeFile
		if err := json.Unmarshal(data, &f); err != nil {
			return MergeReport{}, fmt.Errorf("dse: corrupt shard checkpoint %s: %w", path, err)
		}
		if f.Version != checkpointVersion || f.Hash != f.Key.Hash() || len(f.Results) != f.Key.N {
			return MergeReport{}, fmt.Errorf("dse: %s: %w", path, ErrStaleCheckpoint)
		}
		if fi == 0 {
			key, hash = f.Key, f.Hash
			merged = make([]*json.RawMessage, f.Key.N)
			from = make([]string, f.Key.N)
		} else if f.Hash != hash {
			return MergeReport{}, fmt.Errorf("dse: %s belongs to a different study than %s (key %+v vs %+v): %w",
				path, inputs[0], f.Key, key, ErrStaleCheckpoint)
		}
		for i, r := range f.Results {
			if r == nil {
				continue
			}
			report.PerInput[fi]++
			if merged[i] == nil {
				merged[i] = r
				from[i] = path
				continue
			}
			if !bytes.Equal(*merged[i], *r) {
				return MergeReport{}, fmt.Errorf(
					"dse: point %d disagrees between %s and %s — shards of one key must be bit-identical, refusing to merge",
					i, from[i], path)
			}
			report.Overlap++
		}
	}
	missing := make([]int, 0)
	for i, r := range merged {
		if r == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		show := missing
		if len(show) > 5 {
			show = show[:5]
		}
		return MergeReport{}, fmt.Errorf("dse: merge incomplete: %d of %d points missing (first %v) — run or resume the missing shard",
			len(missing), key.N, show)
	}

	out, err := json.Marshal(mergeFile{Version: checkpointVersion, Hash: hash, Key: key, Results: merged})
	if err != nil {
		return MergeReport{}, fmt.Errorf("dse: marshaling merged checkpoint: %w", err)
	}
	if err := writeAtomic(outPath, out); err != nil {
		return MergeReport{}, fmt.Errorf("dse: writing merged checkpoint: %w", err)
	}
	report.Key, report.N, report.Merged = key, key.N, key.N
	return report, nil
}
