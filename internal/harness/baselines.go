package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/metamorph"
	"murphy/internal/regress"
	"murphy/internal/sage"
	"murphy/internal/telemetry"
)

// RankCase ranks one fuzzed metamorph case with every scheme. Murphy's
// diagnosis comes from metamorph.Diagnose's reference path (zero Options),
// so the Murphy rows of the comparative table score the same diagnosis every
// metamorphic invariant compares against; the baselines rank its pruned
// candidates over the suite's training window (rankSchemes).
func RankCase(c *metamorph.Case) (map[string][]telemetry.EntityID, error) {
	g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
	if err != nil {
		return nil, fmt.Errorf("build graph: %w", err)
	}
	diag, err := metamorph.Diagnose(c, metamorph.Options{})
	if err != nil {
		return nil, fmt.Errorf("murphy: %w", err)
	}
	return rankSchemes(c.DB, g, c.Symptom, c.CallDAG, diag, metamorph.BaseConfig().TrainWindow)
}

// dagRanking trains Sage on a causal call DAG over the telemetry and ranks
// the candidates. An unusable environment — no DAG, cyclic DAG, or a symptom
// the DAG cannot reach — yields an empty ranking, mirroring §6.1/§6.2 where
// Sage structurally cannot produce the root cause. The BFS seed is the
// smallest entity in the DAG so the result is independent of the edge list's
// order.
func dagRanking(db *telemetry.DB, callDAG [][2]telemetry.EntityID, symptom telemetry.Symptom, window int, candidates []telemetry.EntityID) []telemetry.EntityID {
	if len(callDAG) == 0 {
		return nil
	}
	dagDB := db.Clone()
	dagDB.RemoveAllEdges()
	seed := callDAG[0][0]
	for _, e := range callDAG {
		if err := dagDB.Associate(e[0], e[1], telemetry.Directed); err != nil {
			return nil
		}
		if e[0] < seed {
			seed = e[0]
		}
		if e[1] < seed {
			seed = e[1]
		}
	}
	g, err := graph.Build(dagDB, []telemetry.EntityID{seed}, -1)
	if err != nil || !g.Contains(symptom.Entity) {
		return nil
	}
	sCfg := sage.DefaultConfig()
	sCfg.Window = window
	m, err := sage.Train(dagDB, g, sCfg)
	if err != nil {
		return nil
	}
	ranked, err := m.Diagnose(symptom, candidates)
	if err != nil {
		return nil
	}
	return sage.RankedIDs(ranked)
}

// BaselinesResult is the comparative accuracy of every method over the
// fuzzed scenario suite: the per-method numbers cmd/accguard pins in CI
// (Murphy gated, baselines tracked).
type BaselinesResult struct {
	// Seed is the base seed the suite expanded from.
	Seed int64 `json:"seed"`
	// CasesPerFamily is the suite size knob.
	CasesPerFamily int `json:"cases_per_family"`
	// Methods maps scheme name → family name → accuracy.
	Methods map[string]map[string]FamilyAccuracy `json:"methods"`
}

// RunBaselines diagnoses casesPerFamily fuzzed scenarios of every metamorph
// family with all four methods and scores each certified ranking against the
// same relaxed accept sets.
func RunBaselines(seed int64, casesPerFamily int) (*BaselinesResult, error) {
	if casesPerFamily <= 0 {
		return nil, fmt.Errorf("harness: casesPerFamily must be positive")
	}
	out := &BaselinesResult{Seed: seed, CasesPerFamily: casesPerFamily, Methods: make(map[string]map[string]FamilyAccuracy, len(Schemes))}
	for _, s := range Schemes {
		out.Methods[s] = make(map[string]FamilyAccuracy, len(metamorph.Families))
	}
	for _, fam := range metamorph.Families {
		rankings := make(map[string][][]telemetry.EntityID, len(Schemes))
		var accepts []map[telemetry.EntityID]bool
		for i := 0; i < casesPerFamily; i++ {
			c, err := metamorph.Generate(fam, i, seed)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			rs, err := RankCase(c)
			if err != nil {
				return nil, fmt.Errorf("harness: %s[%d] seed=%d: %w", fam, i, c.Seed, err)
			}
			accepts = append(accepts, c.Accept)
			for _, s := range Schemes {
				rankings[s] = append(rankings[s], rs[s])
			}
		}
		for _, s := range Schemes {
			out.Methods[s][fam] = familyAccuracy(rankings[s], accepts)
		}
	}
	return out, nil
}

// String renders the comparative table: one block per family, one row per
// method in the fixed Schemes order.
func (r *BaselinesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Comparative accuracy on the fuzzed scenario suite (seed=%d, %d cases/family)\n", r.Seed, r.CasesPerFamily)
	fmt.Fprintf(&b, "%-15s %-10s %8s %8s %8s %8s\n", "family", "method", "prec", "top1", "top3", "top5")
	for _, fam := range familyOrder(r.Methods[SchemeMurphy]) {
		for _, scheme := range Schemes {
			acc, ok := r.Methods[scheme][fam]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-15s %-10s %8.3f %8.3f %8.3f %8.3f\n", fam, scheme, acc.Precision, acc.Top1, acc.Top3, acc.Top5)
		}
	}
	return b.String()
}

// MarshalIndent renders the result as pretty JSON (the acc_baseline.json /
// acc_report.json wire format since the comparative schema).
func (r *BaselinesResult) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseBaselines parses a comparative accuracy JSON file. Legacy Murphy-only
// files (the pre-comparative `families` shape) are upgraded in place: their
// numbers become the Murphy method, other methods absent.
func ParseBaselines(data []byte) (*BaselinesResult, error) {
	var r struct {
		BaselinesResult
		// Families is the legacy Murphy-only shape.
		Families map[string]FamilyAccuracy `json:"families"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse baselines JSON: %w", err)
	}
	if len(r.Methods) == 0 {
		if r.Families == nil {
			return nil, fmt.Errorf("parse baselines JSON: no methods recorded and not a legacy accuracy file")
		}
		r.Methods = map[string]map[string]FamilyAccuracy{SchemeMurphy: r.Families}
	}
	if len(r.Methods[SchemeMurphy]) == 0 {
		return nil, fmt.Errorf("parse baselines JSON: no Murphy rows recorded")
	}
	return &r.BaselinesResult, nil
}

// SweepRegressors is the Fig 8a comparison order: the factor regression
// model swapped into Murphy's training path.
var SweepRegressors = []string{"ridge", "OLS", "GMM", "MLP", "SVR"}

// RegressorSweepResult is the end-to-end Fig 8a sweep: Murphy's diagnosis
// accuracy with each candidate factor regressor, over the same fuzzed suite.
type RegressorSweepResult struct {
	// Seed is the base seed the suite expanded from.
	Seed int64 `json:"seed"`
	// CasesPerFamily is the suite size knob.
	CasesPerFamily int `json:"cases_per_family"`
	// Regressors maps regressor name → family name → accuracy.
	Regressors map[string]map[string]FamilyAccuracy `json:"regressors"`
	// Errors maps regressor name → cases whose training or diagnosis
	// failed, over all families (each also scored as a miss).
	Errors map[string]int `json:"errors"`
}

// RunRegressorSweep reproduces Fig 8a end to end: instead of scoring held-out
// MASE, each candidate regressor is swapped into Murphy's training path via
// core.TrainOpts.Trainer and the full pipeline diagnoses the fuzzed suite.
// A regressor whose training or diagnosis fails on a case (e.g. a degenerate
// GMM fit) scores that case as a miss and counts it in Errors rather than
// aborting the sweep.
func RunRegressorSweep(seed int64, casesPerFamily int) (*RegressorSweepResult, error) {
	if casesPerFamily <= 0 {
		return nil, fmt.Errorf("harness: casesPerFamily must be positive")
	}
	trainers := map[string]regress.Trainer{
		"ridge": nil, // nil selects the default path: ridge with cfg.Lambda
		"OLS":   regress.OLSTrainer(),
		"GMM":   regress.GMMTrainer(3, seed),
		"MLP":   regress.MLPTrainer(5, seed),
		"SVR":   regress.SVRTrainer(seed),
	}
	out := &RegressorSweepResult{
		Seed: seed, CasesPerFamily: casesPerFamily,
		Regressors: make(map[string]map[string]FamilyAccuracy, len(SweepRegressors)),
		Errors:     make(map[string]int, len(SweepRegressors)),
	}
	for _, name := range SweepRegressors {
		out.Regressors[name] = make(map[string]FamilyAccuracy, len(metamorph.Families))
		out.Errors[name] = 0
	}
	for _, fam := range metamorph.Families {
		rankings := make(map[string][][]telemetry.EntityID, len(SweepRegressors))
		var accepts []map[telemetry.EntityID]bool
		for i := 0; i < casesPerFamily; i++ {
			c, err := metamorph.Generate(fam, i, seed)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
			if err != nil {
				return nil, fmt.Errorf("harness: %s[%d] seed=%d: build graph: %w", fam, i, c.Seed, err)
			}
			accepts = append(accepts, c.Accept)
			for _, name := range SweepRegressors {
				ranked, err := regressorRanking(c, g, trainers[name])
				if err != nil {
					out.Errors[name]++
				}
				rankings[name] = append(rankings[name], ranked)
			}
		}
		for _, name := range SweepRegressors {
			out.Regressors[name][fam] = familyAccuracy(rankings[name], accepts)
		}
	}
	return out, nil
}

// regressorRanking diagnoses one case with the given factor trainer swapped
// into Murphy's training path.
func regressorRanking(c *metamorph.Case, g *graph.Graph, tr regress.Trainer) ([]telemetry.EntityID, error) {
	model, err := core.TrainOpt(context.Background(), c.DB, g, metamorph.BaseConfig(), core.TrainOpts{Now: -1, Trainer: tr})
	if err != nil {
		return nil, err
	}
	diag, err := model.Diagnose(c.Symptom)
	if err != nil {
		return nil, err
	}
	return diag.Ranked(), nil
}

// String renders the sweep as a precision grid (regressor × family) plus the
// across-family mean, the end-to-end analogue of Fig 8a's MASE CDF, and each
// regressor's failed cases.
func (r *RegressorSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8a end-to-end — Murphy accuracy by factor regressor (seed=%d, %d cases/family)\n", r.Seed, r.CasesPerFamily)
	fams := familyOrder(r.Regressors["ridge"])
	fmt.Fprintf(&b, "%-10s", "regressor")
	for _, fam := range fams {
		fmt.Fprintf(&b, " %13s", fam)
	}
	fmt.Fprintf(&b, " %8s %6s\n", "mean", "errors")
	for _, name := range SweepRegressors {
		rows, ok := r.Regressors[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-10s", name)
		sum := 0.0
		for _, fam := range fams {
			acc := rows[fam]
			sum += acc.Precision
			fmt.Fprintf(&b, " %13.3f", acc.Precision)
		}
		mean := 0.0
		if len(fams) > 0 {
			mean = sum / float64(len(fams))
		}
		fmt.Fprintf(&b, " %8.3f %6d\n", mean, r.Errors[name])
	}
	return b.String()
}
