package murphy

import (
	"murphy/internal/core"
	"murphy/internal/resilience"
	"murphy/internal/telemetry"
)

// Config re-exports the algorithm parameters of the MRF core; the zero value
// of any field falls back to the paper's defaults.
type Config = core.Config

// DefaultConfig returns the paper's parameter choices (B=10 features, W=4
// Gibbs rounds, 5000 Monte-Carlo samples, one-week training window).
func DefaultConfig() Config { return core.DefaultConfig() }

// RetryPolicy configures the retry arm of the resilient telemetry read path
// (attempt budget and first backoff; it retries transient faults only, and
// the backoff doubles up to 1 s with ±25% jitter); it aliases the resilience
// layer's Policy so external callers can construct one without reaching into
// internal packages.
type RetryPolicy = resilience.Policy

// BreakerConfig tunes the circuit breaker of the resilient telemetry read
// path; zero fields fall back to defaults suited to per-diagnosis reads.
type BreakerConfig = resilience.BreakerConfig

// SourceStats counts what the resilient read path absorbed (reads, retries,
// failures, breaker rejections); see System.SourceStats.
type SourceStats = resilience.SourceStats

// FactorStore is the persistent incremental factor store behind
// WithIncrementalTraining: per-(entity, window, hyperparameters) sufficient
// statistics slid point by point instead of retrained from scratch, with
// drift-gated fallbacks to the full fit and crash-safe snapshot/restore.
type FactorStore = core.FactorStore

// FactorStoreStats reports the incremental trainer's hit/refit/drift
// counters; see System.FactorStoreStats.
type FactorStoreStats = core.FactorStoreStats

// SamplerConfig configures the batched Gibbs sampling kernel (early
// stopping); see WithSampler.
type SamplerConfig = core.SamplerConfig

// Option customizes a System.
type Option func(*System)

// WithConfig overrides the algorithm parameters.
func WithConfig(cfg Config) Option {
	return func(s *System) { s.cfg = cfg }
}

// WithSeeds sets the entities the relationship graph is grown from
// (typically the affected application's members, or the symptom entity).
// When unset, the graph covers every entity in the database.
func WithSeeds(seeds ...telemetry.EntityID) Option {
	return func(s *System) { s.seeds = seeds }
}

// WithApp seeds the relationship graph with the tagged members of an
// application, as operators do when a ticket names an affected app.
func WithApp(db *telemetry.DB, app string) Option {
	return func(s *System) { s.seeds = db.AppMembers(app) }
}

// WithMaxHops bounds the graph expansion from the seed set; negative (the
// default) expands the reachable component. The paper's incident dataset
// used four hops from the affected application.
func WithMaxHops(h int) Option {
	return func(s *System) { s.maxHop = h }
}

// WithWorkers sizes the session's one worker pool: each online training
// pass fans its per-series preprocessing and per-factor fits out over n
// workers, and each diagnosis its candidate evaluations. n <= 1 (including
// WithWorkers(0)) is valid and stays on the serial code path — no
// goroutines. Trained models and diagnoses are bit-identical at any worker
// count (deterministic job order, independently seeded samplers, per-slot
// outputs), so this is purely a latency knob. The pool composes with
// incremental training and honors context cancellation mid-pool.
func WithWorkers(n int) Option {
	return func(s *System) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// WithSampler configures the batched Gibbs sampling kernel in one bundle:
//
//   - EarlyStop: sequential significance testing — draws arrive in batches
//     through a streaming Welch t-test and stop as soon as the verdict at
//     Alpha is decided with a Φ⁻¹(0.999) ≈ 3.1 standard-error margin.
//
// The zero value is the default sampler, bit-identical to the original
// per-sample sampler (the golden rankings are pinned against it).
//
// Each counterfactual test runs one sampling stream; WithWorkers is the
// one parallelism knob (candidates run concurrently on its pool).
//
// Apply after WithConfig: the bundle replaces Config.Sampler.
func WithSampler(sc SamplerConfig) Option {
	return func(s *System) { s.cfg.Sampler = sc }
}

// Resilience bundles the resilient telemetry read path: an optional
// interposed source plus the retry/breaker layers that absorb its faults.
// The zero value changes nothing; set only the parts you need.
type Resilience struct {
	// Source replaces the database as the online-training read path — a
	// chaos injector in robustness drills, a remote collector in production.
	// Nil keeps the (infallible) database reads.
	Source telemetry.Source
	// Retry wraps the reads in backoff-retries for transient faults
	// (telemetry.ErrTransient). Nil adds no retry layer.
	Retry *RetryPolicy
	// Breaker adds a circuit breaker: a source failing persistently is
	// given a cooldown (reads fail fast and degrade to missing data)
	// instead of retry pressure. The breaker persists across Diagnose
	// calls. Nil adds no breaker.
	Breaker *BreakerConfig
}

// WithResilience configures the resilient telemetry read path in one bundle.
// Reads that still fail after the configured resilience degrade to missing
// data and are reported via Report.ReadFailures and System.SourceStats.
// Incremental training is bypassed while a fallible read path is interposed
// (see WithIncrementalTraining).
func WithResilience(r Resilience) Option {
	return func(s *System) {
		if r.Source != nil {
			s.src = r.Source
		}
		if r.Retry != nil {
			p := *r.Retry
			s.retry = &p
		}
		if r.Breaker != nil {
			c := *r.Breaker
			s.brkCfg = &c
		}
	}
}

// IncrementalTraining selects amortized training; it has no fields, since
// the store's retrain policy is fixed (a factor is refit when the MASE drift
// score of its one-step-ahead predictions exceeds 4, and re-anchored after
// 512 slides). Each System builds its own store (the store binds to the
// System's relationship graph); reach it through System.FactorStore, e.g. to
// snapshot and restore it across daemon restarts.
type IncrementalTraining struct{}

// WithIncrementalTraining makes training amortized: instead of recomputing
// every factor's Gram matrix, correlation ranking, and robust statistics
// from scratch on each Diagnose call, the session keeps per-factor
// sufficient statistics in a FactorStore and slides them as the training
// window advances, falling back to the full (bit-identical) refit when the
// feature selection shifts, the drift score trips, or numeric conditioning
// degrades. Steady-state training cost drops by an order of magnitude on
// point-by-point replays at unchanged diagnosis output (rounding-bounded
// factors, property-tested). It is also the session's only training-reuse
// path: a repeated call at the same time slice (an operator triaging
// several symptoms of one incident, repeated what-if queries) gets every
// factor back exactly as fitted, so rankings stay bit-identical.
//
// The store is bypassed automatically while a fallible read path is
// interposed (WithResilience), since its reads may fail or degrade
// nondeterministically.
func WithIncrementalTraining(it IncrementalTraining) Option {
	return func(s *System) { s.incStore = core.NewFactorStore() }
}
