package train

// Fold-in: the partial-EM mode behind streaming ingestion. New users
// arrive after a model was batch-trained; their interests θu and mixing
// weights λu are fit against the frozen global parameters (topics,
// temporal contexts) by iterating only the E-step over the new user
// range plus the user-dimension M-step. Because the engine's E-step
// statistics for user u depend only on the frozen globals and u's own
// cells, and the user-dimension M-step is row-independent, folding in
// user u is bit-identical to running batch EM restricted to u with the
// globals held fixed — the property the fold-in fixture tests pin down.
//
// The driver below deliberately reuses the exact accumulator/shard
// machinery of Run: the same shardRanges arithmetic, the same
// Reset/EStep/Merge cycle in the same ascending merge order, executed
// by the same worker pool. Fold-in is not a second EM implementation;
// it is the batch engine pointed at a sub-range with the global M-step
// replaced by a user-range one. The one difference is the accumulator:
// a fold-in accumulator carries no global slabs, because FoldStep never
// reads them, so a round costs what the folded users' cells cost rather
// than a catalog-sized clear and merge.

import (
	"errors"
	"fmt"

	"tcam/internal/model"
)

// UserFolder is the model-side contract of fold-in. EStep is shared
// verbatim with Trainable; NewFoldAccum is NewAccum without the global
// slabs (the E-step skips global accumulation when they are absent, and
// accumulates the user-dimension statistics bit-identically); FoldStep
// replaces MStep and must update only the user-dimension parameters
// (θ rows, λ entries) of [lo, hi), leaving every global parameter
// frozen. It returns the range's data log-likelihood under the
// parameters the round started from.
type UserFolder interface {
	NewFoldAccum(shard, lo, hi int) Accum
	EStep(a Accum)
	FoldStep(merged Accum, lo, hi int) float64
}

// FoldInConfig parameterizes FoldIn; zero Shards/Workers take the same
// defaults as batch training, so a fold-in run groups its floating-
// point sums exactly like a batch run with the same shard count.
type FoldInConfig struct {
	// Iters is the number of partial-EM rounds; it must be positive.
	Iters int
	// Shards fixes the summation grouping of the E-step over the folded
	// range (0 means DefaultShards). It does not affect θ/λ results —
	// their statistics live in per-user rows — only the reported
	// log-likelihood.
	Shards int
	// Workers caps E-step goroutines; non-positive means GOMAXPROCS.
	Workers int
}

// FoldIn runs cfg.Iters rounds of partial EM over the user range
// [lo, hi) and returns the per-round log-likelihoods of that range.
func FoldIn(f UserFolder, lo, hi int, cfg FoldInConfig) ([]float64, error) {
	if cfg.Iters <= 0 {
		return nil, fmt.Errorf("train: fold-in Iters must be positive, got %d", cfg.Iters)
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("train: invalid fold-in user range [%d,%d)", lo, hi)
	}
	if hi == lo {
		return nil, errors.New("train: empty fold-in user range")
	}
	ranges := shardRanges(hi-lo, cfg.Shards)
	accums := make([]Accum, len(ranges))
	for i, r := range ranges {
		accums[i] = f.NewFoldAccum(i, lo+r.Lo, lo+r.Hi)
	}
	workers := model.Workers(cfg.Workers)
	if workers > len(accums) {
		workers = len(accums)
	}
	lls := make([]float64, 0, cfg.Iters)
	for iter := 0; iter < cfg.Iters; iter++ {
		for _, a := range accums {
			a.Reset()
		}
		runShards(f, accums, workers)
		for i := 1; i < len(accums); i++ {
			accums[0].Merge(accums[i])
		}
		lls = append(lls, f.FoldStep(accums[0], lo, hi))
	}
	return lls, nil
}
