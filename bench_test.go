// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at reduced scale, plus ablation benches for the design choices
// DESIGN.md calls out. Accuracy values are attached as custom benchmark
// metrics, so `go test -bench=. -benchmem` both times the pipelines and
// reports the reproduced numbers. Run cmd/murphybench -full for the
// paper-scale parameters.
//
// The benches drive internal/harness and the core directly, never the
// facade, so this file is an external test package (murphy_test).
package murphy_test

import (
	"context"
	"fmt"

	"murphy/internal/regress"
	"testing"
	"time"

	"murphy/internal/core"
	"murphy/internal/enterprise"
	"murphy/internal/graph"
	"murphy/internal/harness"
	"murphy/internal/microsim"
	"murphy/internal/obs"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// benchFig5 runs the §6.1 interference experiment once per iteration.
func BenchmarkFig5c_InterferenceTopK(b *testing.B) {
	opts := harness.DefaultFig5Options()
	opts.Variants = 8
	opts.Samples = 300
	var last *harness.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TopK[harness.SchemeMurphy][5], "murphy-top5")
	b.ReportMetric(last.TopK[harness.SchemeSage][5], "sage-top5")
	b.ReportMetric(last.TopK[harness.SchemeNetMedic][5], "netmedic-top5")
	b.ReportMetric(last.TopK[harness.SchemeExplainIt][5], "explainit-top5")
	b.Log("\n" + last.String())
}

func BenchmarkFig5d_PrecisionRecall(b *testing.B) {
	opts := harness.DefaultFig5Options()
	opts.Variants = 8
	opts.Samples = 300
	var last *harness.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Recall[harness.SchemeMurphy], "murphy-recall")
	b.ReportMetric(last.Precision[harness.SchemeMurphy], "murphy-precision")
	b.ReportMetric(last.RelaxedRecall[harness.SchemeMurphy], "murphy-relaxed-recall")
	b.ReportMetric(last.RelaxedRecall[harness.SchemeNetMedic], "netmedic-relaxed-recall")
}

func BenchmarkTable1_ProductionIncidents(b *testing.B) {
	opts := harness.DefaultTable1Options()
	opts.Gen.Steps = 240
	opts.Samples = 400
	var last *harness.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AvgFPs[harness.SchemeMurphy], "murphy-avg-fps")
	b.ReportMetric(last.AvgFPs[harness.SchemeNetMedic], "netmedic-avg-fps")
	b.ReportMetric(last.AvgFPs[harness.SchemeExplainIt], "explainit-avg-fps")
	b.Log("\n" + last.String())
}

func benchFig6(b *testing.B, topo string) {
	opts := harness.DefaultFig6Options()
	opts.Topo = topo
	opts.Scenarios = 8
	opts.Samples = 300
	var last *harness.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TopK[harness.SchemeMurphy][1], "murphy-top1")
	b.ReportMetric(last.TopK[harness.SchemeMurphy][5], "murphy-top5")
	b.ReportMetric(last.TopK[harness.SchemeSage][1], "sage-top1")
	b.ReportMetric(last.TopK[harness.SchemeSage][5], "sage-top5")
	b.Log("\n" + last.String())
}

func BenchmarkFig6b_SocialNetworkContention(b *testing.B) { benchFig6(b, "social") }
func BenchmarkFig6c_HotelReservationContention(b *testing.B) {
	benchFig6(b, "hotel")
}

func BenchmarkTable2_Robustness(b *testing.B) {
	opts := harness.DefaultTable2Options()
	opts.Scenarios = 6
	opts.Samples = 800
	var last *harness.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable2(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Aggregate[harness.SchemeMurphy], "murphy-aggregate")
	b.ReportMetric(last.Aggregate[harness.SchemeSage], "sage-aggregate")
	b.ReportMetric(last.Recall[harness.SchemeMurphy]["unchanged"], "murphy-unchanged")
	b.Log("\n" + last.String())
}

func BenchmarkFig7_Microbenchmarks(b *testing.B) {
	opts := harness.DefaultFig7Options()
	opts.Scenarios = 8
	opts.Samples = 300
	var last *harness.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.OnFreshData, "online")
	b.ReportMetric(last.TrainedOffline, "offline")
	b.ReportMetric(last.NoPriorIncidents, "no-prior-incidents")
	b.Log("\n" + last.String())
}

func BenchmarkFig8a_MetricPredictionModels(b *testing.B) {
	opts := harness.DefaultFig8aOptions()
	opts.Gen.Apps = 6
	opts.Gen.Steps = 200
	opts.MaxEntities = 60
	var last *harness.Fig8aResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig8a(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(stats.Median(last.MASE["linear regression"]), "ridge-median-mase")
	b.ReportMetric(stats.Median(last.MASE["GMM"]), "gmm-median-mase")
	b.ReportMetric(stats.Median(last.MASE["neural network"]), "nn-median-mase")
	b.ReportMetric(stats.Median(last.MASE["SVM"]), "svm-median-mase")
	b.Log("\n" + last.String())
}

func BenchmarkFig8b_CyclicEffects(b *testing.B) {
	opts := harness.DefaultFig8bOptions()
	opts.Gen.Apps = 12
	opts.Gen.Hosts = 10
	opts.Gen.Steps = 220
	opts.ScenariosPerApp = 16
	opts.TrainWindow = 200
	var last *harness.Fig8bResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig8b(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, w := range opts.Rounds {
		b.ReportMetric(float64(last.Correct[w]), "correct-w"+string(rune('0'+w)))
	}
	b.Log("\n" + last.String())
}

func BenchmarkScaling_Runtime(b *testing.B) {
	opts := harness.DefaultScalingOptions()
	var last *harness.ScalingResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunScaling(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	pts := last.Points
	b.ReportMetric(float64(pts[len(pts)-1].Entities), "max-entities")
	b.Log("\n" + last.String())
}

func BenchmarkSensitivity_Parameters(b *testing.B) {
	opts := harness.DefaultSensitivityOptions()
	opts.Scenarios = 4
	opts.Samples = 200
	var last *harness.SensitivityResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunSensitivity(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ByW[1].Recall, "recall-w1")
	b.ReportMetric(last.ByW[4].Recall, "recall-w4")
	b.Log("\n" + last.String())
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks and ablations

// contentionModel trains one Murphy model for per-operation benches, on a
// pool of the given worker count (0 = serial) that its diagnoses evaluate
// candidates on.
func contentionModel(b *testing.B, cfg core.Config, workers int) (*core.Model, *microsim.Scenario) {
	b.Helper()
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.TrainOpt(context.Background(), sc.Result.DB, g, cfg, core.TrainOpts{Now: -1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return m, sc
}

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Samples = 500
	cfg.TrainWindow = 280
	return cfg
}

func BenchmarkCoreTrainOnline(b *testing.B) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(sc.Result.DB, g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreDiagnose(b *testing.B) {
	m, sc := contentionModel(b, benchConfig(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Diagnose(sc.Symptom); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: Gibbs rounds W (accuracy/time tradeoff of §6.8).
func BenchmarkAblationGibbsRounds(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+w))+"rounds", func(b *testing.B) {
			cfg := benchConfig()
			cfg.GibbsRounds = w
			m, sc := contentionModel(b, cfg, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Diagnose(sc.Symptom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: top-B feature selection (paper: B in {5,10,20} within 3%).
func BenchmarkAblationTopB(b *testing.B) {
	for _, topB := range []int{5, 10, 20} {
		name := map[int]string{5: "B5", 10: "B10", 20: "B20"}[topB]
		b.Run(name, func(b *testing.B) {
			sc, err := microsim.Contention(microsim.DefaultContentionOptions())
			if err != nil {
				b.Fatal(err)
			}
			g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := benchConfig()
			cfg.TopB = topB
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(sc.Result.DB, g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: known directed edges vs the bidirectional default (§4.1).
func BenchmarkAblationEdgeDirectionality(b *testing.B) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.Run("bidirectional", func(b *testing.B) {
		g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.Train(sc.Result.DB, g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Diagnose(sc.Symptom); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("directed-call-graph", func(b *testing.B) {
		dagDB := sc.Result.DB.Clone()
		dagDB.RemoveAllEdges()
		for _, e := range sc.CallDAG {
			if err := dagDB.Associate(e[0], e[1], telemetry.Directed); err != nil {
				b.Fatal(err)
			}
		}
		g, err := graph.Build(dagDB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.Train(dagDB, g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Diagnose(sc.Symptom); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCycleStats(b *testing.B) {
	gen := enterprise.DefaultGenOptions()
	gen.Apps = 8
	gen.Hosts = 8
	gen.Steps = 160
	var last *harness.CycleStatsResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunCycleStats(gen)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Cycles2), "cycles2")
	b.ReportMetric(float64(last.Cycles3), "cycles3")
	b.Log("\n" + last.String())
}

// Parallel candidate evaluation (§6.7's suggested optimization): identical
// results, wall time scales with workers. Each worker count trains its own
// model outside the timer.
func BenchmarkDiagnoseParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			m, sc := contentionModel(b, benchConfig(), workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Diagnose(sc.Symptom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: nonlinear MLP factors vs the production ridge factors (§7
// suggests a different learning model could capture nonlinearity).
func BenchmarkAblationFactorModel(b *testing.B) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	trainers := map[string]regress.Trainer{
		"ridge": nil, // default
		"mlp":   regress.MLPTrainer(5, 1),
	}
	for name, tr := range trainers {
		tr := tr
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := core.TrainOpt(context.Background(), sc.Result.DB, g, cfg, core.TrainOpts{Now: -1, Trainer: tr})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Diagnose(sc.Symptom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Inference fast path: factor-store reuse + early-stopped counterfactual tests

// BenchmarkFastPathDiagnoseParallel times the operator triage loop (online
// retrain + diagnosis at the same slice, both on a 4-worker pool) with the
// shared-computation fast path off and on. The sample budget is the paper's
// scale so the sequential tests have room to cut it.
func BenchmarkFastPathDiagnoseParallel(b *testing.B) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	db := sc.Result.DB
	g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		b.Fatal(err)
	}
	base := benchConfig()
	base.Samples = 4000
	variants := []struct {
		name         string
		early, store bool
	}{
		{"baseline", false, false},
		{"store", false, true},
		{"store+earlystop", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := base
			if v.early {
				cfg.Sampler.EarlyStop = true
			}
			var store *core.FactorStore
			if v.store {
				store = core.NewFactorStore()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.TrainOpt(context.Background(), db, g, cfg, core.TrainOpts{Now: -1, Store: store, Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Diagnose(sc.Symptom); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastPathTable2 runs the harness A/B over Table-2 contention
// scenarios and reports the measured speedup and equivalence checks as
// benchmark metrics (1 = identical).
func BenchmarkFastPathTable2(b *testing.B) {
	opts := harness.DefaultFastPathOptions()
	opts.Scenarios = 2
	var last *harness.FastPathResult
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFastPath(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	ind := func(ok bool) float64 {
		if ok {
			return 1
		}
		return 0
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(ind(last.RankingsIdentical), "rankings-identical")
	b.ReportMetric(ind(last.Top1Identical), "top1-identical")
	b.Log("\n" + last.String())
}

// ---------------------------------------------------------------------------
// Parallel training and candidate evaluation

// BenchmarkCoreTrainParallel times the training pool across worker counts on
// the same workload as BenchmarkCoreTrainOnline; workers=1 is the serial
// fallback path (no pool), so the suite exposes the pool's overhead directly.
func BenchmarkCoreTrainParallel(b *testing.B) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TrainOpt(context.Background(), sc.Result.DB, g, cfg,
					core.TrainOpts{Now: -1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalTrain replays a sliding window (one-slice advances)
// over the contention workload: "full" retrains every factor from scratch at
// each slide, "incremental" slides the factor store's sufficient statistics
// and refits only where feature selection changes. The ratio of the two is
// the steady-state training-cost reduction of the incremental trainer.
// "enterprise" slides the store over an 8-app enterprise fleet, whose
// near-duplicate VM series tie inside the selection margin, so the timed
// slides exercise the certified re-rank and in-place reselect path that the
// contention replay rarely takes.
func BenchmarkIncrementalTrain(b *testing.B) {
	const slides = 8
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		b.Fatal(err)
	}
	db := sc.Result.DB
	g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	ctx := context.Background()
	anchor := db.Len() - 1 - slides
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := anchor + 1; t < db.Len(); t++ {
				if _, err := core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: t}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("incremental", func(b *testing.B) { benchSlides(b, db, g, cfg, slides) })
	b.Run("enterprise", func(b *testing.B) {
		db, g := enterpriseFleet(b)
		benchSlides(b, db, g, cfg, slides)
	})
}

// enterpriseFleet builds the 8-app enterprise fleet (153 entities, 661
// factors) and its relationship graph.
func enterpriseFleet(tb testing.TB) (*telemetry.DB, *graph.Graph) {
	tb.Helper()
	gen := enterprise.DefaultGenOptions()
	gen.Apps, gen.Hosts = 8, 10
	env, err := enterprise.Generate(gen)
	if err != nil {
		tb.Fatal(err)
	}
	if err := env.Run(); err != nil {
		tb.Fatal(err)
	}
	g, err := graph.Build(env.DB, []telemetry.EntityID{env.DBVM(0)}, -1)
	if err != nil {
		tb.Fatal(err)
	}
	return env.DB, g
}

// TestPureHitPassAllocs gates the cost of a training pass that changes
// nothing, which every same-window what-if pays: a store already bound to
// the graph, trained again at its window, hands back every stored factor,
// so the pass may allocate less than once per factor. A pass that rebuilds
// per-series bookkeeping (maps keyed by series, candidate lists, key
// strings) allocates several times per factor. Counting allocations keeps
// the gate independent of host speed.
func TestPureHitPassAllocs(t *testing.T) {
	db, g := enterpriseFleet(t)
	cfg := benchConfig()
	ctx := context.Background()
	store := core.NewFactorStore()
	train := func() *core.Model {
		m, err := core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: -1, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	factors := train().NumFactors()
	before := store.Stats()
	allocs := testing.AllocsPerRun(5, func() { train() })
	after := store.Stats()
	if after.Refits != before.Refits || after.Hits-before.Hits != 6*uint64(factors) {
		t.Fatalf("same-window passes should be pure hits: %+v -> %+v", before, after)
	}
	if allocs >= float64(factors) {
		t.Fatalf("pure-hit pass allocates %.0f times for %d factors (%.2f per factor), want fewer than one per factor",
			allocs, factors, allocs/float64(factors))
	}
	t.Logf("pure-hit pass: %.0f allocations for %d factors (%.2f per factor)", allocs, factors, allocs/float64(factors))
}

// benchSlides times one-slice slides of a factor store over the last
// slides slices of db. Every iteration re-anchors untimed, so it measures
// pure steady state: the store populated, then the slides.
func benchSlides(b *testing.B, db *telemetry.DB, g *graph.Graph, cfg core.Config, slides int) {
	ctx := context.Background()
	anchor := db.Len() - 1 - slides
	store := core.NewFactorStore()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store.Reset()
		if _, err := core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: anchor, Store: store}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for t := anchor + 1; t < db.Len(); t++ {
			if _, err := core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: t, Store: store}); err != nil {
				b.Fatal(err)
			}
		}
	}
	st := store.Stats()
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(st.Refits)/float64(b.N), "refits/op")
	b.ReportMetric(float64(st.Reselects)/float64(b.N), "reselects/op")
}

// ---------------------------------------------------------------------------
// Observability layer overhead

// BenchmarkObsOverhead times the same diagnosis with the instrumentation
// layer disabled (the production default — budgeted at ≤2% over the
// pre-instrumentation baseline, i.e. BenchmarkCoreDiagnose's historical
// numbers) and enabled (spans, counters, histograms all live).
func BenchmarkObsOverhead(b *testing.B) {
	m, sc := contentionModel(b, benchConfig(), 0)
	rec := obs.New()
	m.SetRecorder(rec)
	b.Run("disabled", func(b *testing.B) {
		rec.Disable()
		for i := 0; i < b.N; i++ {
			if _, err := m.Diagnose(sc.Symptom); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		rec.Reset()
		rec.Enable()
		defer rec.Disable()
		for i := 0; i < b.N; i++ {
			if _, err := m.Diagnose(sc.Symptom); err != nil {
				b.Fatal(err)
			}
		}
		snap := rec.Snapshot()
		b.ReportMetric(float64(snap.Counters["gibbs_samples"])/float64(b.N), "gibbs-samples/op")
	})
}

// ---------------------------------------------------------------------------
// Batched Gibbs kernel throughput

// BenchmarkGibbsKernel times the inner sampling kernel in isolation (one
// trained model, repeated Diagnose calls on the Table-2 contention workload)
// per precision, reporting raw sampling throughput as samples/sec — the
// metric the bench baseline gates with higher-is-better semantics.
func BenchmarkGibbsKernel(b *testing.B) {
	for _, prec := range []core.Precision{core.PrecisionFloat64, core.PrecisionFloat32} {
		b.Run(prec.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Samples = 4000
			cfg.Sampler.Precision = prec
			rec := obs.New()
			rec.Enable()
			sc, err := microsim.Contention(microsim.DefaultContentionOptions())
			if err != nil {
				b.Fatal(err)
			}
			g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
			if err != nil {
				b.Fatal(err)
			}
			m, err := core.TrainOpt(context.Background(), sc.Result.DB, g, cfg,
				core.TrainOpts{Now: -1, Obs: rec})
			if err != nil {
				b.Fatal(err)
			}
			start := rec.Counter(obs.CtrGibbsSamples)
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := m.Diagnose(sc.Symptom); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(t0).Seconds()
			b.StopTimer()
			drawn := rec.Counter(obs.CtrGibbsSamples) - start
			if elapsed > 0 {
				b.ReportMetric(float64(drawn)/elapsed, "samples/sec")
			}
		})
	}
}
