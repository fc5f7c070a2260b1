package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"murphy/internal/core"
	"murphy/internal/enterprise"
	"murphy/internal/graph"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// Fig8aOptions parameterizes the metric-prediction model comparison
// (§6.6.1): one model per entity metric, trained on the first part of the
// window and scored by MASE on the held-out tail, across a large multi-app
// metrics dataset.
type Fig8aOptions struct {
	// Gen sizes the metrics dataset (the paper uses ~17K entities across
	// 300 apps; the generator scales to that with Apps/Hosts large).
	Gen enterprise.GenOptions
	// HoldoutFrac is the tail fraction scored as test data.
	HoldoutFrac float64
	// MaxEntities caps the evaluated entities (0 = all).
	MaxEntities int
	// Seeds for the stochastic models.
	Seed int64
}

// DefaultFig8aOptions returns a dataset that exercises every entity type.
func DefaultFig8aOptions() Fig8aOptions {
	gen := enterprise.DefaultGenOptions()
	gen.Apps = 10
	gen.Hosts = 8
	gen.Steps = 300
	return Fig8aOptions{Gen: gen, HoldoutFrac: 0.25, Seed: 1}
}

// Fig8aModels is the comparison order of Fig 8a.
var Fig8aModels = []string{"linear regression", "SVM", "GMM", "neural network"}

// Fig8aResult carries the per-model MASE samples across entities.
type Fig8aResult struct {
	Opts Fig8aOptions
	// MASE[model] is the per-entity error sample (one value per entity:
	// the mean MASE across its metrics).
	MASE map[string][]float64
	// Entities is how many entities were scored.
	Entities int
}

// RunFig8a trains each candidate model per entity metric on neighbor metrics
// and scores held-out prediction error.
func RunFig8a(opts Fig8aOptions) (*Fig8aResult, error) {
	env, err := enterprise.Generate(opts.Gen)
	if err != nil {
		return nil, err
	}
	if err := env.Run(); err != nil {
		return nil, err
	}
	db := env.DB
	g, err := graph.Build(db, db.Entities()[:1], -1)
	if err != nil {
		return nil, err
	}
	split := int(float64(db.Len()) * (1 - opts.HoldoutFrac))
	if split < 8 || split >= db.Len() {
		return nil, fmt.Errorf("harness: bad holdout split %d of %d", split, db.Len())
	}
	trainers := map[string]regress.Trainer{
		"linear regression": regress.RidgeTrainer(1.0),
		"SVM":               regress.SVRTrainer(opts.Seed),
		"GMM":               regress.GMMTrainer(3, opts.Seed),
		"neural network":    regress.MLPTrainer(5, opts.Seed),
	}
	res := &Fig8aResult{Opts: opts, MASE: map[string][]float64{}}
	ids := g.IDs()
	for _, id := range ids {
		if opts.MaxEntities > 0 && res.Entities >= opts.MaxEntities {
			break
		}
		metrics := db.MetricNames(id)
		if len(metrics) == 0 {
			continue
		}
		// Collect neighbor feature refs once per entity.
		type ref struct {
			id telemetry.EntityID
			m  string
		}
		var feats []ref
		for _, nb := range g.InIDs(id) {
			for _, nm := range db.MetricNames(nb) {
				feats = append(feats, ref{nb, nm})
			}
		}
		if len(feats) == 0 {
			continue
		}
		perModel := map[string][]float64{}
		for _, metric := range metrics {
			y := db.Window(id, metric, 0, db.Len())
			// Select top-10 features by training-window correlation, as
			// Murphy's factors do.
			type scored struct {
				r ref
				c float64
			}
			rank := make([]scored, 0, len(feats))
			for _, fr := range feats {
				w := db.Window(fr.id, fr.m, 0, split)
				rank = append(rank, scored{fr, stats.AbsPearson(w, y[:split])})
			}
			sort.Slice(rank, func(i, j int) bool {
				if rank[i].c != rank[j].c {
					return rank[i].c > rank[j].c
				}
				if rank[i].r.id != rank[j].r.id {
					return rank[i].r.id < rank[j].r.id
				}
				return rank[i].r.m < rank[j].r.m
			})
			b := 10
			if b > len(rank) {
				b = len(rank)
			}
			sel := rank[:b]
			x := make([][]float64, db.Len())
			for t := 0; t < db.Len(); t++ {
				row := make([]float64, len(sel))
				for j, s := range sel {
					row[j] = db.At(s.r.id, s.r.m, t)
				}
				x[t] = row
			}
			for name, tr := range trainers {
				model := tr()
				if err := model.Fit(x[:split], y[:split]); err != nil {
					continue
				}
				pred := make([]float64, db.Len()-split)
				for t := split; t < db.Len(); t++ {
					pred[t-split] = model.Predict(x[t])
				}
				m, err := stats.MASE(pred, y[split:], y[:split])
				if err != nil || math.IsInf(m, 0) || math.IsNaN(m) {
					continue
				}
				perModel[name] = append(perModel[name], m)
			}
		}
		counted := false
		for name, ms := range perModel {
			if len(ms) == 0 {
				continue
			}
			res.MASE[name] = append(res.MASE[name], stats.Mean(ms))
			counted = true
		}
		if counted {
			res.Entities++
		}
	}
	return res, nil
}

// String prints the CDF summary (quartiles) per model.
func (r *Fig8aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8a — metric prediction error (MASE) across %d entities\n", r.Entities)
	for _, name := range Fig8aModels {
		ms := r.MASE[name]
		if len(ms) == 0 {
			fmt.Fprintf(&b, "  %-18s (no data)\n", name)
			continue
		}
		e := stats.NewECDF(ms)
		fmt.Fprintf(&b, "  %-18s p25 %.3f  median %.3f  p75 %.3f  p95 %.3f\n",
			name, e.Quantile(0.25), e.Quantile(0.5), e.Quantile(0.75), e.Quantile(0.95))
	}
	return b.String()
}

// Fig8bOptions parameterizes the cyclic-effects experiment (§6.6.2 and
// Appendix A.2): predict a backend SQL server's metrics after perturbing the
// application's flows to their values at another time point, for varying
// Gibbs rounds.
type Fig8bOptions struct {
	// Gen sizes the environment; each app supplies scenarios.
	Gen enterprise.GenOptions
	// ScenariosPerApp is how many (t1, t2) pairs are tested per app.
	ScenariosPerApp int
	// Rounds are the Gibbs-round counts on the x axis.
	Rounds []int
	// Delta and Epsilon are the (Δ, ε)-closeness criteria.
	Delta, Epsilon float64
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
}

// DefaultFig8bOptions mirrors the appendix: 24 apps, rounds 1/2/4/8,
// multiplicative-or-small-additive closeness.
func DefaultFig8bOptions() Fig8bOptions {
	gen := enterprise.DefaultGenOptions()
	gen.Apps = 24
	gen.Hosts = 12
	gen.Steps = 300
	return Fig8bOptions{
		Gen: gen, ScenariosPerApp: 32, Rounds: []int{1, 2, 4, 8},
		Delta: 1.5, Epsilon: 0.15, Samples: 200, TrainWindow: 280,
	}
}

// Fig8bResult carries correctly-predicted scenario counts per round count.
type Fig8bResult struct {
	Opts Fig8bOptions
	// Correct[w] is the number of correctly predicted scenarios with w
	// Gibbs rounds.
	Correct map[int]int
	// Total is the number of scenarios evaluated.
	Total int
}

// RunFig8b runs the Appendix A.2 protocol on the enterprise metrics dataset.
func RunFig8b(opts Fig8bOptions) (*Fig8bResult, error) {
	env, err := enterprise.Generate(opts.Gen)
	if err != nil {
		return nil, err
	}
	if err := env.Run(); err != nil {
		return nil, err
	}
	db := env.DB
	res := &Fig8bResult{Opts: opts, Correct: map[int]int{}}
	cfg := murphyConfig(opts.Samples, opts.TrainWindow)
	for appIx, appName := range env.AppNames() {
		// Relationship graph around the app.
		g, err := graph.Build(db, db.AppMembers(appName), 3)
		if err != nil {
			return nil, err
		}
		model, err := core.Train(db, g, cfg)
		if err != nil {
			return nil, err
		}
		q := env.DBVM(appIx) // the backend SQL server
		qSeries := db.Window(q, telemetry.MetricCPU, 0, db.Len())
		maxSeen := stats.Max(qSeries)
		// Appendix A.2: among the flows that send requests to the app's
		// front-end, pick the top-5 by correlation with Q.
		flows := env.FrontendFlows(appIx)
		sort.Slice(flows, func(i, j int) bool {
			ci := stats.AbsPearson(db.Window(flows[i], telemetry.MetricThroughput, 0, db.Len()), qSeries)
			cj := stats.AbsPearson(db.Window(flows[j], telemetry.MetricThroughput, 0, db.Len()), qSeries)
			if ci != cj {
				return ci > cj
			}
			return flows[i] < flows[j]
		})
		if len(flows) > 5 {
			flows = flows[:5]
		}
		for s := 0; s < opts.ScenariosPerApp; s++ {
			// Pick t1 (the diagnosis slice context is "current": use the
			// trained model's now) and t2 with significantly different Q
			// metrics: stride through the timeline.
			t2 := (s*17 + 31) % (db.Len() - 1)
			actual := db.At(q, telemetry.MetricCPU, t2)
			cur := model.CurrentValue(q, telemetry.MetricCPU)
			if math.Abs(actual-cur) < 1e-6 {
				continue
			}
			// Override the selected flows' metrics with their t2 values.
			overrides := map[telemetry.EntityID]map[string]float64{}
			for _, flow := range flows {
				overrides[flow] = map[string]float64{
					telemetry.MetricThroughput: db.At(flow, telemetry.MetricThroughput, t2),
					telemetry.MetricSessions:   db.At(flow, telemetry.MetricSessions, t2),
					telemetry.MetricRTT:        db.At(flow, telemetry.MetricRTT, t2),
				}
			}
			res.Total++
			for _, w := range opts.Rounds {
				pred, ok := model.PredictUnderIntervention(overrides, q, telemetry.MetricCPU, w)
				if !ok {
					continue
				}
				// (Δ, ε)-criteria on the predicted *change*: multiplicative
				// band Δ or additive band ε·maxSeen.
				dPred := pred - cur
				dTrue := actual - cur
				okMul := dTrue != 0 && dPred/dTrue > 1/opts.Delta && dPred/dTrue < opts.Delta
				okAdd := math.Abs(dPred-dTrue) < opts.Epsilon*maxSeen
				if okMul || okAdd {
					res.Correct[w]++
				}
			}
		}
	}
	return res, nil
}

// String prints the Fig 8b series.
func (r *Fig8bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8b — cyclic effects: correctly predicted scenarios (of %d) vs Gibbs rounds\n", r.Total)
	for _, w := range r.Opts.Rounds {
		fmt.Fprintf(&b, "  W=%d: %d\n", w, r.Correct[w])
	}
	return b.String()
}
