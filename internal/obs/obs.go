// Package obs is the diagnosis pipeline's self-instrumentation layer:
// per-stage spans (wall and CPU time), monotonic counters, power-of-two
// histograms, and a subscribable progress-event stream, so a system whose
// whole job is explaining other systems' performance can also explain its
// own.
//
// The design goal is near-zero cost when disabled: every Recorder method is
// nil-safe and guarded by one atomic load, counters are fixed-index atomics
// (no maps, no allocation on the hot path), and spans are value types. A
// pipeline can therefore call into a disabled Recorder unconditionally — the
// overhead is a predicted branch per call site.
//
// Layering: obs depends only on the standard library. The diagnosis core,
// the graph layer, and the resilience layer all feed it; the public facade
// translates its events into the exported Observer surface.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of a diagnosis. Stages are reported in this
// order in breakdowns; StageTest aggregates the per-candidate counterfactual
// tests of one diagnosis under a single span (per-candidate detail flows
// through Progress events and the HistTestWallMicros histogram).
type Stage uint8

// The pipeline stages, in execution order.
const (
	StageTrain   Stage = iota // online MRF training (per Diagnose/WhatIf call)
	StagePrune                // candidate search-space pruning (threshold BFS)
	StageTest                 // per-candidate counterfactual tests (aggregate)
	StageRank                 // cause ranking + partial-result assembly
	StageExplain              // explanation-chain generation
	numStages
)

var stageNames = [numStages]string{"train", "prune", "test", "rank", "explain"}

// String returns the stable lowercase stage name used in breakdown tables,
// observer events, and exported metrics.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists all pipeline stages in execution order.
func Stages() []Stage {
	return []Stage{StageTrain, StagePrune, StageTest, StageRank, StageExplain}
}

// Counter identifies one monotonic pipeline counter.
type Counter uint8

// The pipeline counters. Names (see Counter.Name) are the stable exported
// identifiers used in snapshots and the Prometheus exporter.
const (
	// CtrFactorsTrained counts per-metric factors given a full fit over the
	// training window (a fresh store's anchors, drift and guard refits).
	CtrFactorsTrained Counter = iota
	// CtrSubgraphCacheHits / CtrSubgraphCacheMisses count shortest-path
	// subgraph memoization lookups during candidate evaluation.
	CtrSubgraphCacheHits
	CtrSubgraphCacheMisses
	// CtrGibbsSamples counts Monte-Carlo draws of the Gibbs-variant
	// resampler, across all candidates and both (counterfactual, factual)
	// runs.
	CtrGibbsSamples
	// CtrEarlyStopDecisive counts counterfactual tests the sequential test
	// cut short; CtrEarlyStopExhausted counts tests that ran the full
	// sample budget (with early stopping enabled).
	CtrEarlyStopDecisive
	CtrEarlyStopExhausted
	// CtrCandidatesPruned counts graph entities the threshold BFS excluded
	// from the search space; CtrCandidatesTested counts candidates whose
	// counterfactual evaluation ran to completion; CtrCandidatesSkipped
	// counts candidates skipped by deadline, cancellation, or a recovered
	// evaluator panic.
	CtrCandidatesPruned
	CtrCandidatesTested
	CtrCandidatesSkipped
	// CtrCausesCertified counts candidates that passed the counterfactual
	// significance test.
	CtrCausesCertified
	// CtrReadRetries counts telemetry reads the resilience layer retried to
	// success; CtrReadFailures counts reads degraded to missing data after
	// retries; CtrBreakerTrips counts circuit-breaker open transitions.
	CtrReadRetries
	CtrReadFailures
	CtrBreakerTrips
	// CtrTrainParallelFits counts factor fits executed while the training
	// worker pool was active (pool size > 1); zero on serial training runs.
	CtrTrainParallelFits
	// CtrGibbsChains counts independent Gibbs chains launched by the
	// multi-chain sampler (Config.Sampler.Chains >= 2); zero on the
	// single-stream sampler.
	CtrGibbsChains
	// CtrIngestBatches / CtrIngestPoints count telemetry batches and
	// individual observations accepted by the serve layer's ingest path;
	// CtrIngestShed counts batches rejected by admission control (429/503).
	CtrIngestBatches
	CtrIngestPoints
	CtrIngestShed
	// CtrDiagEnqueued / CtrDiagDequeued / CtrDiagCompleted trace the
	// bounded diagnosis work queue (live depth = enqueued − dequeued);
	// CtrDiagShed counts diagnosis requests rejected because the queue was
	// full or the daemon was draining.
	CtrDiagEnqueued
	CtrDiagDequeued
	CtrDiagCompleted
	CtrDiagShed
	// CtrWatchdogCancels counts diagnoses the serve watchdog cancelled (and
	// quarantined) for exceeding the stuck-diagnosis budget.
	CtrWatchdogCancels
	// CtrSnapshotsWritten / CtrSnapshotsRecovered count crash-safe state
	// snapshots persisted and restored by the serve layer.
	CtrSnapshotsWritten
	CtrSnapshotsRecovered
	// CtrIncTrainHits counts factors served from slid sufficient statistics
	// by the factor store (full fits, initial anchors included, count under
	// CtrFactorsTrained); CtrIncTrainDriftTrips counts the full refits
	// forced by the MASE drift score; CtrIncTrainReselects counts the subset
	// of hits that adopted a changed feature selection in place (no full
	// refit); CtrIncTrainSlides counts window slides applied to the factor
	// store's statistics.
	CtrIncTrainHits
	CtrIncTrainDriftTrips
	CtrIncTrainReselects
	CtrIncTrainSlides
	// CtrTopologyQueries / CtrPerfQueries / CtrReportQueries count read
	// queries served by the daemon's operator query surface (topology
	// neighborhoods, per-entity performance summaries, report searches);
	// CtrReadShed counts read queries rejected by the read admission limit
	// or because the daemon was draining.
	CtrTopologyQueries
	CtrPerfQueries
	CtrReportQueries
	CtrReadShed
	// CtrReportsPersisted counts completed diagnosis reports durably
	// appended to the persisted report store.
	CtrReportsPersisted
	numCounters
)

var counterNames = [numCounters]string{
	"factors_trained",
	"subgraph_cache_hits",
	"subgraph_cache_misses",
	"gibbs_samples",
	"earlystop_decisive",
	"earlystop_exhausted",
	"candidates_pruned",
	"candidates_tested",
	"candidates_skipped",
	"causes_certified",
	"read_retries",
	"read_failures",
	"breaker_trips",
	"train_parallel_fits",
	"gibbs_chains",
	"ingest_batches",
	"ingest_points",
	"ingest_shed",
	"diag_enqueued",
	"diag_dequeued",
	"diag_completed",
	"diag_shed",
	"watchdog_cancels",
	"snapshots_written",
	"snapshots_recovered",
	"inctrain_hits",
	"inctrain_drift_trips",
	"inctrain_reselects",
	"inctrain_slides",
	"topology_queries",
	"perf_queries",
	"report_queries",
	"read_shed",
	"reports_persisted",
}

// Name returns the stable snake_case counter name.
func (c Counter) Name() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Counters lists every counter in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Hist identifies one power-of-two histogram.
type Hist uint8

// The pipeline histograms.
const (
	// HistSamplesPerTest is the Monte-Carlo draw count per candidate
	// counterfactual test (shows what early stopping saves).
	HistSamplesPerTest Hist = iota
	// HistTestWallMicros is per-candidate evaluation wall time in µs.
	HistTestWallMicros
	numHists
)

var histNames = [numHists]string{"samples_per_test", "test_wall_micros"}

// Name returns the stable snake_case histogram name.
func (h Hist) Name() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "unknown"
}

// Observer receives the live event stream of an enabled Recorder. All
// callbacks are serialized by the Recorder (even when events originate on
// concurrent pool workers), so implementations need no internal locking;
// they must not block, since they run inline with the pipeline.
type Observer interface {
	// StageStart fires when a pipeline stage begins.
	StageStart(st Stage)
	// StageEnd fires when a stage completes, with its wall-clock duration
	// and the process CPU time consumed while it ran (0 where the platform
	// offers no cheap process CPU clock).
	StageEnd(st Stage, wall, cpu time.Duration)
	// Progress fires as long-running stages advance — for StageTest, once
	// per candidate whose evaluation ran (passed, failed or panicked): done
	// of total evaluated, entity naming the candidate just finished. A
	// candidate a deadline cut off before it started emits none.
	Progress(st Stage, done, total int, entity string)
}

// stageAgg accumulates one stage's span totals.
type stageAgg struct {
	calls atomic.Int64
	wall  atomic.Int64 // nanoseconds
	cpu   atomic.Int64 // nanoseconds
}

// Recorder collects the instrumentation of one diagnosis pipeline (or, via
// Global, of a whole process). The zero value is ready to use and disabled;
// all methods are safe on a nil *Recorder and safe for concurrent use.
type Recorder struct {
	enabled  atomic.Bool
	counters [numCounters]atomic.Int64
	stages   [numStages]stageAgg
	hists    [numHists]histogram

	mu        sync.Mutex
	observers []Observer
}

// New returns a disabled Recorder.
func New() *Recorder { return &Recorder{} }

var global = New()

// Global returns the process-wide Recorder. It starts disabled, so
// instrumented code paths that default to it (the core's training and
// inference, when no per-session Recorder is configured) pay only the atomic
// guard; cmd/murphybench -stats enables it.
func Global() *Recorder { return global }

// Enable turns collection and event dispatch on.
func (r *Recorder) Enable() {
	if r != nil {
		r.enabled.Store(true)
	}
}

// Disable turns collection off; accumulated data is kept.
func (r *Recorder) Disable() {
	if r != nil {
		r.enabled.Store(false)
	}
}

// Enabled reports whether the recorder is collecting.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Attach subscribes an observer to the event stream. Attaching does not
// enable the recorder.
func (r *Recorder) Attach(o Observer) {
	if r == nil || o == nil {
		return
	}
	r.mu.Lock()
	r.observers = append(r.observers, o)
	r.mu.Unlock()
}

// Reset zeroes all counters, stage aggregates, and histograms (observers and
// the enabled flag are kept). Concurrent writers may interleave with the
// zeroing; Reset is meant for quiescent points between runs.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.counters {
		r.counters[i].Store(0)
	}
	for i := range r.stages {
		r.stages[i].calls.Store(0)
		r.stages[i].wall.Store(0)
		r.stages[i].cpu.Store(0)
	}
	for i := range r.hists {
		r.hists[i].reset()
	}
}

// Add increments a counter by n. No-op when disabled.
func (r *Recorder) Add(c Counter, n int64) {
	if !r.Enabled() || c >= numCounters {
		return
	}
	r.counters[c].Add(n)
}

// Counter returns a counter's current value (0 on a nil recorder).
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil || c >= numCounters {
		return 0
	}
	return r.counters[c].Load()
}

// Observe records a value into a histogram. No-op when disabled.
func (r *Recorder) Observe(h Hist, v int64) {
	if !r.Enabled() || h >= numHists {
		return
	}
	r.hists[h].observe(v)
}

// Span is an in-flight stage measurement returned by StartStage. The zero
// value (from a disabled or nil recorder) is a no-op.
type Span struct {
	r     *Recorder
	st    Stage
	start time.Time
	cpu0  time.Duration
}

// StartStage opens a span for a stage, dispatching StageStart to observers.
// Close it with End; a Span from a disabled recorder costs nothing to End.
func (r *Recorder) StartStage(st Stage) Span {
	if !r.Enabled() || st >= numStages {
		return Span{}
	}
	r.dispatch(func(o Observer) { o.StageStart(st) })
	return Span{r: r, st: st, start: time.Now(), cpu0: processCPU()}
}

// End closes the span: the stage's call count, wall time, and process CPU
// delta are accumulated, and StageEnd is dispatched to observers.
func (s Span) End() {
	if s.r == nil {
		return
	}
	wall := time.Since(s.start)
	var cpu time.Duration
	if c := processCPU(); c > 0 && s.cpu0 > 0 && c > s.cpu0 {
		cpu = c - s.cpu0
	}
	agg := &s.r.stages[s.st]
	agg.calls.Add(1)
	agg.wall.Add(int64(wall))
	agg.cpu.Add(int64(cpu))
	s.r.dispatch(func(o Observer) { o.StageEnd(s.st, wall, cpu) })
}

// Progress emits a progress event for a stage. It is safe to call from
// concurrent workers; dispatch to observers is serialized.
func (r *Recorder) Progress(st Stage, done, total int, entity string) {
	if !r.Enabled() {
		return
	}
	r.dispatch(func(o Observer) { o.Progress(st, done, total, entity) })
}

// dispatch runs f for every observer while holding the observer lock, so
// observer implementations see a serialized event stream.
func (r *Recorder) dispatch(f func(Observer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range r.observers {
		f(o)
	}
}

// StageStats is one stage's accumulated span totals.
type StageStats struct {
	Stage string        `json:"stage"`
	Calls int64         `json:"calls"`
	Wall  time.Duration `json:"wall_ns"`
	CPU   time.Duration `json:"cpu_ns"`
}

// HistBucket is one cumulative histogram bucket: Count observations ≤ Le.
type HistBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistStats is one histogram's snapshot.
type HistStats struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a Recorder's data, safe to serialize.
type Snapshot struct {
	Enabled  bool             `json:"enabled"`
	Stages   []StageStats     `json:"stages"`
	Counters map[string]int64 `json:"counters"`
	Hists    []HistStats      `json:"histograms,omitempty"`
}

// Snapshot copies the recorder's current data. Valid (all-zero, Enabled
// false) on a nil recorder.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return snap
	}
	snap.Enabled = r.enabled.Load()
	for _, st := range Stages() {
		agg := &r.stages[st]
		snap.Stages = append(snap.Stages, StageStats{
			Stage: st.String(),
			Calls: agg.calls.Load(),
			Wall:  time.Duration(agg.wall.Load()),
			CPU:   time.Duration(agg.cpu.Load()),
		})
	}
	for _, c := range Counters() {
		snap.Counters[c.Name()] = r.counters[c].Load()
	}
	for i := Hist(0); i < numHists; i++ {
		snap.Hists = append(snap.Hists, r.hists[i].snapshot(i.Name()))
	}
	return snap
}
