// Machine-readable benchmark reporting (-json): murphybench serializes the
// perf-relevant experiment results into one artifact (BENCH_murphy.json) so
// the repo carries a comparable perf trajectory across commits.
package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"murphy/internal/harness"
	"murphy/internal/serve"
)

// benchReport is the top-level -json document. Experiments that did not run
// are omitted, so a partial run still yields a valid report.
type benchReport struct {
	Schema      int           `json:"schema"`
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	FastPath    *fastPathJSON `json:"fastpath,omitempty"`
	// IncTrain is the sliding-window incremental-training replay: steady-state
	// train cost of full retrains vs slid sufficient statistics, with the
	// factor-equivalence and identical-causes evidence. The base replay
	// always runs; -full adds the enterprise-scale arms.
	IncTrain []incTrainJSON `json:"inctrain,omitempty"`
	// Baselines is the comparative accuracy of Murphy vs NetMedic /
	// ExplainIt / Sage over the fuzzed suite (per-method columns accguard
	// pins: Murphy gated, baselines tracked).
	Baselines *harness.BaselinesResult `json:"baselines,omitempty"`
	// RegressorSweep is the end-to-end Fig 8a sweep: Murphy's accuracy with
	// each candidate factor regressor swapped into the training path.
	RegressorSweep *harness.RegressorSweepResult `json:"regressor_sweep,omitempty"`
	// Soak is the chaos soak drill of the always-on daemon (shed rates,
	// queue high-water, latency percentiles, degradation-ladder evidence).
	Soak *serve.SoakResult `json:"soak,omitempty"`
}

// fastPathJSON summarizes the fastpath A/B experiment.
type fastPathJSON struct {
	Diagnoses         int     `json:"diagnoses"`
	BaselineMs        float64 `json:"baseline_ms"`
	StoreOnlyMs       float64 `json:"store_only_ms"`
	FastMs            float64 `json:"fast_ms"`
	Speedup           float64 `json:"speedup"`
	RankingsIdentical bool    `json:"rankings_identical"`
	Top1Identical     bool    `json:"top1_identical"`
	BaselineSamples   int     `json:"baseline_samples"`
	FastSamples       int     `json:"fast_samples"`
	StoreHits         uint64  `json:"store_hits"`
	StoreRefits       uint64  `json:"store_refits"`
	// BaselineSamplesPerSec is the baseline arm's raw kernel throughput:
	// Monte-Carlo draws per second of diagnosis wall time.
	BaselineSamplesPerSec float64 `json:"baseline_samples_per_sec"`
}

// incTrainJSON summarizes one incremental-training replay arm.
type incTrainJSON struct {
	Apps            int     `json:"apps,omitempty"`
	Entities        int     `json:"entities"`
	Slides          int     `json:"slides"`
	Factors         int     `json:"factors"`
	FullMs          float64 `json:"full_ms"`
	IncrementalMs   float64 `json:"incremental_ms"`
	NsPerSlideFull  int64   `json:"ns_per_slide_full"`
	NsPerSlideInc   int64   `json:"ns_per_slide_incremental"`
	AnchorMs        float64 `json:"anchor_ms"`
	Speedup         float64 `json:"speedup"`
	MaxFactorDelta  float64 `json:"max_factor_delta"`
	ToleranceOK     bool    `json:"tolerance_ok"`
	CausesIdentical bool    `json:"causes_identical"`
	Hits            uint64  `json:"hits"`
	Refits          uint64  `json:"refits"`
	Reselects       uint64  `json:"reselects"`
	DriftTrips      uint64  `json:"drift_trips"`
	ExactRanks      uint64  `json:"exact_ranks"`
	GramDots        uint64  `json:"gram_dots"`
}

func newBenchReport() *benchReport {
	return &benchReport{
		Schema:      1,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
}

func fastPathReport(r *harness.FastPathResult) *fastPathJSON {
	return &fastPathJSON{
		Diagnoses:         r.Diagnoses,
		BaselineMs:        float64(r.BaselineTime) / float64(time.Millisecond),
		StoreOnlyMs:       float64(r.StoreOnlyTime) / float64(time.Millisecond),
		FastMs:            float64(r.FastTime) / float64(time.Millisecond),
		Speedup:           r.Speedup,
		RankingsIdentical: r.RankingsIdentical,
		Top1Identical:     r.Top1Identical,
		BaselineSamples:   r.BaselineSamples,
		FastSamples:       r.FastSamples,
		StoreHits:         r.StoreHits,
		StoreRefits:       r.StoreRefits,

		BaselineSamplesPerSec: r.BaselineSamplesPerSec,
	}
}

func incTrainReport(r *harness.IncTrainResult) incTrainJSON {
	out := incTrainJSON{
		Apps:            r.Opts.Apps,
		Entities:        r.Entities,
		Slides:          r.Opts.Slides,
		Factors:         r.Factors,
		FullMs:          float64(r.FullTime) / float64(time.Millisecond),
		IncrementalMs:   float64(r.IncTime) / float64(time.Millisecond),
		AnchorMs:        float64(r.AnchorTime) / float64(time.Millisecond),
		Speedup:         r.Speedup,
		MaxFactorDelta:  r.MaxDelta,
		ToleranceOK:     r.ToleranceOK,
		CausesIdentical: r.CausesIdentical,
		Hits:            r.Hits,
		Refits:          r.Refits,
		Reselects:       r.Reselects,
		DriftTrips:      r.DriftTrips,
		ExactRanks:      r.ExactRanks,
		GramDots:        r.GramDots,
	}
	if r.Opts.Slides > 0 {
		out.NsPerSlideFull = r.FullTime.Nanoseconds() / int64(r.Opts.Slides)
		out.NsPerSlideInc = r.IncTime.Nanoseconds() / int64(r.Opts.Slides)
	}
	return out
}

// writeBenchReport writes the report as indented JSON (trailing newline, so
// the artifact diffs cleanly when checked in).
func writeBenchReport(path string, r *benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
