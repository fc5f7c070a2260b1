package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"murphy/internal/core"
	"murphy/internal/enterprise"
	"murphy/internal/evalx"
	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// ScalingOptions parameterizes the §6.7 runtime study: training + inference
// wall time as the relationship graph grows.
type ScalingOptions struct {
	// AppCounts are the environment sizes to sweep.
	AppCounts []int
	// Steps is the timeline length.
	Steps int
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
}

// DefaultScalingOptions returns a small sweep.
func DefaultScalingOptions() ScalingOptions {
	return ScalingOptions{AppCounts: []int{2, 4, 8}, Steps: 200, Samples: 200, TrainWindow: 180}
}

// ScalingPoint is one measured environment size.
type ScalingPoint struct {
	Apps       int
	Entities   int
	Edges      int
	TrainTime  time.Duration
	DiagTime   time.Duration
	Candidates int
}

// ScalingResult carries the runtime sweep.
type ScalingResult struct {
	Opts   ScalingOptions
	Points []ScalingPoint
}

// RunScaling measures Murphy's online-training and inference time across
// environment sizes (the complexity is O((N+M)T + (N+M)W), §6.7).
func RunScaling(opts ScalingOptions) (*ScalingResult, error) {
	res := &ScalingResult{Opts: opts}
	for _, apps := range opts.AppCounts {
		gen := enterprise.DefaultGenOptions()
		gen.Apps = apps
		gen.Hosts = 2 + apps
		gen.Steps = opts.Steps
		env, err := enterprise.Generate(gen)
		if err != nil {
			return nil, err
		}
		// A demand surge on app 0 is representative and valid at any size.
		if err := env.Run(func(e *enterprise.Env, st *enterprise.StepState) {
			if st.T() >= opts.Steps-opts.Steps/10 {
				st.ScaleDemand(0, 6)
			}
		}); err != nil {
			return nil, err
		}
		db := env.DB
		symptom := telemetry.Symptom{Entity: env.DBVM(0), Metric: telemetry.MetricCPU, High: true}
		g, err := graph.Build(db, []telemetry.EntityID{symptom.Entity}, -1)
		if err != nil {
			return nil, err
		}
		cfg := murphyConfig(opts.Samples, opts.TrainWindow)
		t0 := time.Now()
		model, err := core.Train(db, g, cfg)
		if err != nil {
			return nil, err
		}
		trainTime := time.Since(t0)
		diag, err := model.Diagnose(symptom)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ScalingPoint{
			Apps:       apps,
			Entities:   g.Len(),
			Edges:      g.NumEdges(),
			TrainTime:  trainTime,
			DiagTime:   diag.Elapsed,
			Candidates: len(diag.Candidates),
		})
	}
	return res, nil
}

// String prints the scaling table.
func (r *ScalingResult) String() string {
	var b strings.Builder
	b.WriteString("§6.7 — runtime vs relationship-graph size\n")
	fmt.Fprintf(&b, "  %6s %9s %7s %12s %12s %11s\n", "apps", "entities", "edges", "train", "diagnose", "candidates")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %6d %9d %7d %12s %12s %11d\n",
			p.Apps, p.Entities, p.Edges, p.TrainTime.Round(time.Millisecond), p.DiagTime.Round(time.Millisecond), p.Candidates)
	}
	return b.String()
}

// SensitivityOptions parameterizes the §6.8 sweeps over W and ntrain.
type SensitivityOptions struct {
	// Scenarios per configuration.
	Scenarios int
	// Steps per scenario.
	Steps int
	// Samples configures Murphy.
	Samples int
	// Ws are the Gibbs-round counts to sweep.
	Ws []int
	// NTrains are the training lengths to sweep.
	NTrains []int
	// Seed drives scenario generation.
	Seed int64
}

// DefaultSensitivityOptions returns the paper's sweep points.
func DefaultSensitivityOptions() SensitivityOptions {
	return SensitivityOptions{Scenarios: 8, Steps: 620, Samples: 300, Ws: []int{1, 2, 4, 8}, NTrains: []int{128, 256, 512}, Seed: 1}
}

// SensitivityResult carries accuracy and time per parameter value.
type SensitivityResult struct {
	Opts SensitivityOptions
	// ByW[w] is (top-5 recall, mean diagnosis time) at w Gibbs rounds.
	ByW map[int]AccTime
	// ByNTrain[n] is the same for training lengths.
	ByNTrain map[int]AccTime
}

// AccTime pairs an accuracy with a mean wall time.
type AccTime struct {
	Recall   float64
	MeanTime time.Duration
}

// RunSensitivity sweeps W and ntrain on contention scenarios.
func RunSensitivity(opts SensitivityOptions) (*SensitivityResult, error) {
	res := &SensitivityResult{Opts: opts, ByW: map[int]AccTime{}, ByNTrain: map[int]AccTime{}}
	run := func(w, nTrain int) (AccTime, error) {
		var rankings [][]telemetry.EntityID
		var accepts []map[telemetry.EntityID]bool
		var total time.Duration
		for v := 0; v < opts.Scenarios; v++ {
			sc, g, err := hotelContention(opts.Steps, opts.Seed, v)
			if err != nil {
				return AccTime{}, err
			}
			cfg := murphyConfig(opts.Samples, nTrain)
			cfg.GibbsRounds = w
			model, err := core.Train(sc.Result.DB, g, cfg)
			if err != nil {
				return AccTime{}, err
			}
			diag, err := model.Diagnose(sc.Symptom)
			if err != nil {
				return AccTime{}, err
			}
			total += diag.Elapsed
			rankings = append(rankings, diag.Ranked())
			accepts = append(accepts, evalx.AcceptSet([]telemetry.EntityID{sc.TruthEntity}, sc.Acceptable))
		}
		return AccTime{
			Recall:   evalx.TopKRecall(rankings, accepts, 5),
			MeanTime: total / time.Duration(opts.Scenarios),
		}, nil
	}
	for _, w := range opts.Ws {
		at, err := run(w, 280)
		if err != nil {
			return nil, err
		}
		res.ByW[w] = at
	}
	for _, n := range opts.NTrains {
		at, err := run(4, n)
		if err != nil {
			return nil, err
		}
		res.ByNTrain[n] = at
	}
	return res, nil
}

// String prints the sensitivity tables.
func (r *SensitivityResult) String() string {
	var b strings.Builder
	b.WriteString("§6.8 — sensitivity\n  Gibbs rounds W:\n")
	for _, w := range r.Opts.Ws {
		at := r.ByW[w]
		fmt.Fprintf(&b, "    W=%d  recall %.2f  mean diagnose %s\n", w, at.Recall, at.MeanTime.Round(time.Millisecond))
	}
	b.WriteString("  training length:\n")
	for _, n := range r.Opts.NTrains {
		at := r.ByNTrain[n]
		fmt.Fprintf(&b, "    ntrain=%d  recall %.2f  mean diagnose %s\n", n, at.Recall, at.MeanTime.Round(time.Millisecond))
	}
	return b.String()
}

// CycleStatsResult summarizes §2.2's cycle statistics for an incident graph.
type CycleStatsResult struct {
	Entities  int
	Edges     int
	Cycles2   int
	Cycles3   int
	VMsTotal  int
	VMsCyclic int
}

// RunCycleStats builds the relationship graph of a representative incident
// and reports its cycle statistics (§2.2 reports >2000 2-cycles and >4000
// 3-cycles on average, with every affected VM on at least one cycle).
func RunCycleStats(gen enterprise.GenOptions) (*CycleStatsResult, error) {
	env, inc, err := enterprise.RunIncident(gen, enterprise.ByIndex(2))
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(env.DB, []telemetry.EntityID{inc.Symptom.Entity}, -1)
	if err != nil {
		return nil, err
	}
	res := &CycleStatsResult{
		Entities: g.Len(),
		Edges:    g.NumEdges(),
		Cycles2:  g.CountCycles2(),
		Cycles3:  g.CountCycles3(),
	}
	for i, id := range g.IDs() {
		if env.DB.Entity(id).Type != telemetry.TypeVM {
			continue
		}
		res.VMsTotal++
		if g.InCycle(i) {
			res.VMsCyclic++
		}
	}
	return res, nil
}

// String prints the cycle statistics.
func (r *CycleStatsResult) String() string {
	return fmt.Sprintf("§2.2 — incident graph: %d entities, %d edges, %d 2-cycles, %d 3-cycles, %d/%d VMs on a cycle\n",
		r.Entities, r.Edges, r.Cycles2, r.Cycles3, r.VMsCyclic, r.VMsTotal)
}

// FastPathOptions parameterizes the shared-computation fast-path A/B
// measurement: the Table-2 contention workload diagnosed with the classic
// fixed-budget inference versus factor-store reuse + early-stopped
// counterfactual tests, every arm trained and diagnosed on one worker pool.
type FastPathOptions struct {
	// Scenarios is the number of contention incidents.
	Scenarios int
	// Steps is the emulation length per scenario.
	Steps int
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
	// Workers sizes each arm's one worker pool: it fans out both the
	// training fits and the candidate evaluations.
	Workers int
	// Rounds is how many times each incident is diagnosed at the same
	// slice (an operator re-triaging: this is what the factor store
	// amortizes — every round after the first is served from the store).
	Rounds int
	// Seed drives scenario generation.
	Seed int64
}

// DefaultFastPathOptions returns the configuration the PR's speedup target
// is stated against.
func DefaultFastPathOptions() FastPathOptions {
	return FastPathOptions{
		Scenarios: 4, Steps: 300, Samples: 4000, TrainWindow: 280,
		Workers: 4, Rounds: 2, Seed: 1,
	}
}

// FastPathResult carries the A/B timings and the equivalence checks.
type FastPathResult struct {
	Opts FastPathOptions
	// Diagnoses is Scenarios * Rounds.
	Diagnoses int
	// BaselineTime / StoreOnlyTime / FastTime are total train+diagnose
	// wall times across all diagnoses for: the classic path, factor-store
	// reuse with full-budget sampling, and store + early stop.
	BaselineTime, StoreOnlyTime, FastTime time.Duration
	// Speedup is BaselineTime / FastTime.
	Speedup float64
	// RankingsIdentical is whether the store-only ranked cause lists (and
	// their p-values) are bit-identical to the baseline's, per diagnosis.
	RankingsIdentical bool
	// Top1Identical is whether the fast path's top-ranked cause matches
	// the baseline's in every diagnosis.
	Top1Identical bool
	// BaselineSamples / FastSamples total the Monte-Carlo draws spent in
	// certified causes.
	BaselineSamples, FastSamples int
	// BaselineSamplesPerSec is the baseline arm's raw sampling-kernel
	// throughput: Monte-Carlo draws per second of diagnosis wall time.
	BaselineSamplesPerSec float64
	// StoreHits / StoreRefits total the factor-store counters of the fast
	// runs: factors served from the store vs fitted from scratch.
	StoreHits, StoreRefits uint64
}

// RunFastPath measures the inference fast path against the classic
// fixed-budget implementation on uncorrupted Table-2 contention scenarios.
func RunFastPath(opts FastPathOptions) (*FastPathResult, error) {
	if opts.Scenarios <= 0 || opts.Rounds <= 0 {
		return nil, fmt.Errorf("harness: need at least one scenario and round")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	baseCfg := murphyConfig(opts.Samples, opts.TrainWindow)
	fastCfg := baseCfg
	fastCfg.Sampler.EarlyStop = true
	res := &FastPathResult{Opts: opts, RankingsIdentical: true, Top1Identical: true}
	var baseDraws int64
	var baseDiagTime time.Duration
	for v := 0; v < opts.Scenarios; v++ {
		sc, g, err := hotelContention(opts.Steps, opts.Seed, v)
		if err != nil {
			return nil, err
		}
		db := sc.Result.DB
		// run returns the diagnoses, the total train+diagnose wall time, the
		// diagnosis-only wall time, and the Monte-Carlo draws taken — the
		// last two give the baseline's raw kernel throughput (samples/sec).
		run := func(cfg core.Config, store *core.FactorStore) ([]*core.Diagnosis, time.Duration, time.Duration, int64, error) {
			rec := obs.New()
			rec.Enable()
			var out []*core.Diagnosis
			var diagTime time.Duration
			t0 := time.Now()
			for r := 0; r < opts.Rounds; r++ {
				model, err := core.TrainOpt(context.Background(), db, g, cfg, core.TrainOpts{Now: -1, Store: store, Obs: rec, Workers: opts.Workers})
				if err != nil {
					return nil, 0, 0, 0, err
				}
				d0 := time.Now()
				diag, err := model.Diagnose(sc.Symptom)
				if err != nil {
					return nil, 0, 0, 0, err
				}
				diagTime += time.Since(d0)
				out = append(out, diag)
			}
			return out, time.Since(t0), diagTime, rec.Counter(obs.CtrGibbsSamples), nil
		}
		base, dt, diagDt, draws, err := run(baseCfg, nil)
		if err != nil {
			return nil, err
		}
		res.BaselineTime += dt
		baseDiagTime += diagDt
		baseDraws += draws
		stored, dt, _, _, err := run(baseCfg, core.NewFactorStore())
		if err != nil {
			return nil, err
		}
		res.StoreOnlyTime += dt
		fastStore := core.NewFactorStore()
		fast, dt, _, _, err := run(fastCfg, fastStore)
		if err != nil {
			return nil, err
		}
		res.FastTime += dt
		st := fastStore.Stats()
		res.StoreHits += st.Hits
		res.StoreRefits += st.Refits
		for r := 0; r < opts.Rounds; r++ {
			res.Diagnoses++
			if !sameCauses(base[r], stored[r]) {
				res.RankingsIdentical = false
			}
			if top1(base[r]) != top1(fast[r]) {
				res.Top1Identical = false
			}
			for _, c := range base[r].Causes {
				res.BaselineSamples += c.SamplesUsed
			}
			for _, c := range fast[r].Causes {
				res.FastSamples += c.SamplesUsed
			}
		}
	}
	if res.FastTime > 0 {
		res.Speedup = float64(res.BaselineTime) / float64(res.FastTime)
	}
	if s := baseDiagTime.Seconds(); s > 0 {
		res.BaselineSamplesPerSec = float64(baseDraws) / s
	}
	return res, nil
}

// sameCauses reports whether two diagnoses certified the same causes, in the
// same order, with identical p-values and effects.
func sameCauses(a, b *core.Diagnosis) bool {
	if len(a.Causes) != len(b.Causes) {
		return false
	}
	for i := range a.Causes {
		x, y := a.Causes[i], b.Causes[i]
		if x.Entity != y.Entity || x.PValue != y.PValue || x.Effect != y.Effect || x.Score != y.Score {
			return false
		}
	}
	return true
}

// sameRankedEntities reports whether two diagnoses certified the same ranked
// entity list, ignoring p-values and effects (a slid factor matches a fresh
// fit only to rounding, which can move them).
func sameRankedEntities(a, b *core.Diagnosis) bool {
	if len(a.Causes) != len(b.Causes) {
		return false
	}
	for i := range a.Causes {
		if a.Causes[i].Entity != b.Causes[i].Entity {
			return false
		}
	}
	return true
}

// top1 returns the top-ranked certified cause ("" when none passed).
func top1(d *core.Diagnosis) telemetry.EntityID {
	if len(d.Causes) == 0 {
		return ""
	}
	return d.Causes[0].Entity
}

// String prints the fast-path A/B table.
func (r *FastPathResult) String() string {
	var b strings.Builder
	b.WriteString("inference fast path — factor-store reuse + early-stopped counterfactual tests\n")
	fmt.Fprintf(&b, "  workload: %d contention scenarios × %d diagnoses, %d samples, %d workers\n",
		r.Opts.Scenarios, r.Opts.Rounds, r.Opts.Samples, r.Opts.Workers)
	fmt.Fprintf(&b, "  %-28s %12s\n", "baseline (classic)", r.BaselineTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "factor store only", r.StoreOnlyTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "store + early stop", r.FastTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  speedup %.1fx   rankings identical (store): %v   top-1 identical (fast): %v\n",
		r.Speedup, r.RankingsIdentical, r.Top1Identical)
	fmt.Fprintf(&b, "  kernel throughput (baseline): %.3gM samples/sec\n", r.BaselineSamplesPerSec/1e6)
	fmt.Fprintf(&b, "  MC draws in causes: %d -> %d   store: %d hits / %d refits\n",
		r.BaselineSamples, r.FastSamples, r.StoreHits, r.StoreRefits)
	return b.String()
}
