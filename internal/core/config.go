// Package core implements the paper's primary contribution: the Markov
// Random Field over the relationship graph, trained online at diagnosis time,
// and the counterfactual Gibbs-sampling-variant inference that decides which
// entities are root causes of a problematic symptom (§4.2).
package core

import (
	"time"

	"murphy/internal/telemetry"
)

// Config collects the tunable parameters of Murphy's algorithm. The defaults
// are the values the paper settled on.
type Config struct {
	// TopB is the number of neighbor metrics selected (by absolute
	// correlation with the target metric) as features of each per-entity
	// factor. The paper uses B=10 per the one-in-ten rule.
	TopB int
	// GibbsRounds is W, the number of resampling passes over the shortest-
	// path subgraph. The paper settles on W=4 (§6.8).
	GibbsRounds int
	// Samples is the number of Monte-Carlo samples drawn for each of the
	// counterfactual and factual starts before the t-test. The paper uses
	// 5000; experiments may reduce it (the code path is identical).
	Samples int
	// TrainWindow is the number of trailing time slices used for online
	// training (the paper trains on the prior week, a few hundred points).
	TrainWindow int
	// Lambda is the ridge penalty of the per-factor regression.
	Lambda float64
	// CounterfactualSigma is how many historical standard deviations the
	// counterfactual value is moved (toward normal). The paper uses 2.
	CounterfactualSigma float64
	// Alpha is the t-test significance level for declaring a root cause.
	Alpha float64
	// MinEffect is the minimum mean shift of the symptom metric (in units
	// of its historical standard deviation) required in addition to
	// statistical significance. With thousands of samples a t-test detects
	// arbitrarily small shifts; this keeps the shift practically relevant.
	MinEffect float64
	// MaxCandidates caps the pruned candidate search space (0 = unlimited).
	MaxCandidates int
	// AnomalyZ is the conservative z-score threshold used when pruning the
	// candidate search space: only entities with some metric at least this
	// many standard deviations from its historical mean are explored.
	AnomalyZ float64
	// Seed makes sampling deterministic.
	Seed int64
	// Timeout bounds a whole Diagnose call (0 = no bound).
	Timeout time.Duration
	// SeedFor, when non-nil, replaces the default per-candidate-pair RNG
	// seed derivation (Seed mixed with hashes of the candidate and symptom
	// entity IDs). It exists for metamorphic testing: a transform that
	// renames entities can supply the original IDs' seeds so the sampling
	// streams — and therefore every p-value bit — survive the rename.
	// Production diagnoses should leave it nil.
	SeedFor func(candidate, symptom telemetry.EntityID) int64
	// Sampler configures the sampling kernel: sequential early stopping.
	Sampler SamplerConfig
}

// SamplerConfig configures the batched Gibbs sampling kernel: sequential
// early stopping. The zero value is the bit-stable default sampler.
type SamplerConfig struct {
	// EarlyStop enables sequential significance testing: the Monte-Carlo
	// samples of each counterfactual test are drawn in batches through a
	// streaming Welch t-test, and sampling stops as soon as the verdict at
	// Alpha is decided with margin to spare — both the t statistic (vs its
	// critical value) and the effect estimate (vs MinEffect) sit Φ⁻¹(0.999)
	// ≈ 3.1 standard errors past their thresholds (see
	// stats.StreamingWelch). This cuts the Samples budget by an order of
	// magnitude for clear-cut candidates; borderline candidates still run
	// the full budget. The accept/reject verdicts are the same in practice,
	// but reported p-values come from the truncated sample.
	EarlyStop bool
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		TopB:                10,
		GibbsRounds:         4,
		Samples:             5000,
		TrainWindow:         300,
		Lambda:              1.0,
		CounterfactualSigma: 2.0,
		Alpha:               0.01,
		MinEffect:           0.05,
		MaxCandidates:       0,
		AnomalyZ:            1.5,
		Seed:                1,
	}
}

// Sanitized returns a copy of c with out-of-range values clamped to safe
// ones, so a partially filled Config never produces a degenerate run. It is
// the configuration TrainOpt actually trains and diagnoses with; callers
// that need an effective value (a zero TrainWindow, say) read it from here
// rather than re-deriving the default.
func Sanitized(c Config) Config {
	d := DefaultConfig()
	if c.TopB <= 0 {
		c.TopB = d.TopB
	}
	if c.GibbsRounds <= 0 {
		c.GibbsRounds = d.GibbsRounds
	}
	if c.Samples < 4 {
		c.Samples = d.Samples
	}
	if c.TrainWindow < 8 {
		c.TrainWindow = d.TrainWindow
	}
	if c.Lambda < 0 {
		c.Lambda = d.Lambda
	}
	if c.CounterfactualSigma <= 0 {
		c.CounterfactualSigma = d.CounterfactualSigma
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = d.Alpha
	}
	if c.MinEffect < 0 {
		c.MinEffect = d.MinEffect
	}
	if c.AnomalyZ <= 0 {
		c.AnomalyZ = d.AnomalyZ
	}
	return c
}
