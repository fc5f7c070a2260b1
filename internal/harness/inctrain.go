package harness

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"murphy/internal/core"
	"murphy/internal/enterprise"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// IncTrainOptions parameterizes the incremental-training replay: a sliding
// window advances one slice at a time over the tail of a contention workload,
// and every slide trains the model twice — a full retrain (a storeless train,
// which anchors a fresh factor store) and an incremental pass over a
// persistent store's slid sufficient statistics. The experiment reports the
// steady-state cost ratio and verifies that the two paths produce equivalent
// factors and identical certified causes.
type IncTrainOptions struct {
	// Steps is the emulation length; the replay slides over its tail.
	Steps int
	// Slides is how many one-slice window advances are measured after the
	// anchoring pass.
	Slides int
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
	// Tolerance bounds the per-parameter relative delta between the full and
	// incremental factors at every slide.
	Tolerance float64
	// Seed drives scenario generation.
	Seed int64
	// Apps, when positive, replays over an enterprise environment of this
	// many three-tier applications (Apps+2 hosts) instead of the hotel
	// contention scenario — the scale arm of the experiment. At ~18 entities
	// per app, Apps=56 lands near 1k entities and Apps=560 near 10k.
	Apps int
}

// DefaultIncTrainOptions returns the replay the EXPERIMENTS table reports.
func DefaultIncTrainOptions() IncTrainOptions {
	return IncTrainOptions{
		Steps: 400, Slides: 40, Samples: 1000, TrainWindow: 300,
		Tolerance: 1e-6, Seed: 1,
	}
}

// IncTrainResult carries the replay measurements.
type IncTrainResult struct {
	Opts IncTrainOptions
	// Entities is the candidate-graph size of the replayed environment.
	Entities int
	// Factors is the trained factor count of the final model.
	Factors int
	// AnchorTime is the incremental path's first (anchoring) pass — a full
	// train that also populates the store's statistics.
	AnchorTime time.Duration
	// FullTime / IncTime are steady-state totals over the measured slides.
	FullTime, IncTime time.Duration
	// Speedup is FullTime / IncTime: the steady-state training-cost ratio.
	Speedup float64
	// MaxDelta is the worst per-parameter relative delta between the full
	// and incremental factors observed across every slide.
	MaxDelta float64
	// ToleranceOK reports MaxDelta <= Opts.Tolerance.
	ToleranceOK bool
	// CausesIdentical reports whether the final diagnosis certified the same
	// ranked cause entities on both paths. (Scores are compared through the
	// per-factor Tolerance, not bitwise: slid statistics agree with the full
	// retrain to ~1e-12, which is far inside the certification margins but
	// not last-ulp-identical after hundreds of Monte-Carlo draws.)
	CausesIdentical bool
	// Hits / Refits / Reselects / DriftTrips are the store's counters after
	// the replay.
	Hits, Refits, Reselects, DriftTrips uint64
	// ExactRanks / GramDots are the store's full-window work counters after
	// the replay: exact |Pearson| values that certified a slid ranking
	// (rank), and Gram entries recomputed by reselects (reselect).
	ExactRanks, GramDots uint64
}

// RunIncTrain replays a sliding window over the Table-2 contention workload,
// training full-window and incrementally at every slide, and reports the
// steady-state cost ratio plus the factor/diagnosis equivalence evidence.
func RunIncTrain(opts IncTrainOptions) (*IncTrainResult, error) {
	if opts.Slides <= 0 {
		return nil, fmt.Errorf("harness: need at least one slide")
	}
	if opts.TrainWindow+opts.Slides >= opts.Steps {
		return nil, fmt.Errorf("harness: need Steps > TrainWindow+Slides (%d+%d vs %d)",
			opts.TrainWindow, opts.Slides, opts.Steps)
	}
	var db *telemetry.DB
	var symptom telemetry.Symptom
	if opts.Apps > 0 {
		gen := enterprise.DefaultGenOptions()
		gen.Apps = opts.Apps
		gen.Hosts = 2 + opts.Apps
		gen.Steps = opts.Steps
		gen.Seed = opts.Seed
		env, err := enterprise.Generate(gen)
		if err != nil {
			return nil, err
		}
		// A demand surge on app 0 over the final tenth keeps the symptom
		// diagnosable at every scale (same shape as RunScaling).
		if err := env.Run(func(e *enterprise.Env, st *enterprise.StepState) {
			if st.T() >= opts.Steps-opts.Steps/10 {
				st.ScaleDemand(0, 6)
			}
		}); err != nil {
			return nil, err
		}
		db = env.DB
		symptom = telemetry.Symptom{Entity: env.DBVM(0), Metric: telemetry.MetricCPU, High: true}
	} else {
		sc, err := microsim.Contention(microsim.ContentionOptions{
			Topo: "hotel", Steps: opts.Steps, PriorIncidents: 4,
			Kind: microsim.FaultCPU, Intensity: 0.5, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		db = sc.Result.DB
		symptom = sc.Symptom
	}
	g, err := graph.Build(db, []telemetry.EntityID{symptom.Entity}, -1)
	if err != nil {
		return nil, err
	}
	cfg := murphyConfig(opts.Samples, opts.TrainWindow)
	ctx := context.Background()
	store := core.NewFactorStore()
	res := &IncTrainResult{Opts: opts, Entities: g.Len(), CausesIdentical: true}

	anchor := db.Len() - 1 - opts.Slides
	var fullModel, incModel *core.Model
	for t := anchor; t < db.Len(); t++ {
		t0 := time.Now()
		fullModel, err = core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: t})
		fullWall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		incModel, err = core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: t, Store: store})
		incWall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if t == anchor {
			res.AnchorTime = incWall
		} else {
			res.FullTime += fullWall
			res.IncTime += incWall
		}
		n, d, err := compareFactors(db, fullModel, incModel)
		if err != nil {
			return nil, fmt.Errorf("harness: slide %d: %w", t, err)
		}
		res.Factors = n
		if d > res.MaxDelta {
			res.MaxDelta = d
		}
	}
	if res.IncTime > 0 {
		res.Speedup = float64(res.FullTime) / float64(res.IncTime)
	}
	res.ToleranceOK = res.MaxDelta <= opts.Tolerance

	fullDiag, err := fullModel.Diagnose(symptom)
	if err != nil {
		return nil, err
	}
	incDiag, err := incModel.Diagnose(symptom)
	if err != nil {
		return nil, err
	}
	res.CausesIdentical = sameRankedEntities(fullDiag, incDiag)

	st := store.Stats()
	res.Hits, res.Refits, res.Reselects, res.DriftTrips = st.Hits, st.Refits, st.Reselects, st.DriftTrips
	res.ExactRanks, res.GramDots = st.ExactRanks, st.GramDots
	return res, nil
}

// compareFactors walks every (entity, metric) pair, requires the two models
// to have trained the same factor set, and returns the factor count and the
// worst per-parameter relative delta.
func compareFactors(db *telemetry.DB, full, inc *core.Model) (int, float64, error) {
	var n int
	var worst float64
	for _, id := range db.Entities() {
		for _, metric := range db.MetricNames(id) {
			fv, fok := full.FactorView(id, metric)
			iv, iok := inc.FactorView(id, metric)
			if fok != iok {
				return 0, 0, fmt.Errorf("factor %s/%s trained on one path only (full=%v inc=%v)", id, metric, fok, iok)
			}
			if !fok {
				continue
			}
			n++
			if len(fv.Features) != len(iv.Features) {
				return 0, 0, fmt.Errorf("factor %s/%s selected %d features vs %d", id, metric, len(fv.Features), len(iv.Features))
			}
			for i := range fv.Features {
				if fv.Features[i] != iv.Features[i] {
					return 0, 0, fmt.Errorf("factor %s/%s feature %d: %s vs %s", id, metric, i, fv.Features[i], iv.Features[i])
				}
			}
			pairs := [][2]float64{
				{fv.Intercept, iv.Intercept}, {fv.ResidualStd, iv.ResidualStd},
				{fv.HMean, iv.HMean}, {fv.HStd, iv.HStd},
				{fv.Med, iv.Med}, {fv.MADScale, iv.MADScale}, {fv.RScore, iv.RScore},
			}
			for i := range fv.Coef {
				pairs = append(pairs, [2]float64{fv.Coef[i], iv.Coef[i]},
					[2]float64{fv.FeatMean[i], iv.FeatMean[i]},
					[2]float64{fv.FeatStd[i], iv.FeatStd[i]})
			}
			for _, p := range pairs {
				if d := relDelta(p[0], p[1]); d > worst {
					worst = d
				}
			}
		}
	}
	return n, worst, nil
}

// relDelta is |a-b| scaled by max(1, |a|), so tiny parameters compare
// absolutely and large ones relatively. NaN-on-both compares equal.
func relDelta(a, b float64) float64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	scale := math.Abs(a)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}

// String prints the replay summary.
func (r *IncTrainResult) String() string {
	var b strings.Builder
	if r.Opts.Apps > 0 {
		fmt.Fprintf(&b, "incremental sliding-window training — enterprise replay (%d apps)\n", r.Opts.Apps)
	} else {
		b.WriteString("incremental sliding-window training — contention replay\n")
	}
	fmt.Fprintf(&b, "  workload: %d entities, window %d, %d slides, %d factors\n",
		r.Entities, r.Opts.TrainWindow, r.Opts.Slides, r.Factors)
	perFull := time.Duration(0)
	perInc := time.Duration(0)
	if r.Opts.Slides > 0 {
		perFull = r.FullTime / time.Duration(r.Opts.Slides)
		perInc = r.IncTime / time.Duration(r.Opts.Slides)
	}
	fmt.Fprintf(&b, "  full retrain: %10s total  (%s/slide)\n", r.FullTime.Round(time.Millisecond), perFull.Round(time.Microsecond))
	fmt.Fprintf(&b, "  incremental:  %10s total  (%s/slide)   speedup %.1fx\n",
		r.IncTime.Round(time.Millisecond), perInc.Round(time.Microsecond), r.Speedup)
	fmt.Fprintf(&b, "  anchor pass:  %10s (one-time store population)\n", r.AnchorTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  store: %d hits (%d reselects), %d refits, %d drift trips\n", r.Hits, r.Reselects, r.Refits, r.DriftTrips)
	if r.Opts.Slides > 0 {
		fmt.Fprintf(&b, "  per slide: %.1f exact |Pearson| ranks, %.1f reselect Gram dots\n",
			float64(r.ExactRanks)/float64(r.Opts.Slides), float64(r.GramDots)/float64(r.Opts.Slides))
	}
	fmt.Fprintf(&b, "  equivalence: max factor delta %.2e (tolerance %.0e, ok=%v), causes identical %v\n",
		r.MaxDelta, r.Opts.Tolerance, r.ToleranceOK, r.CausesIdentical)
	return b.String()
}
