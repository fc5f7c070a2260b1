package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"murphy/internal/core"
	"murphy/internal/explainit"
	"murphy/internal/graph"
	"murphy/internal/metamorph"
	"murphy/internal/netmedic"
	"murphy/internal/regress"
	"murphy/internal/sage"
	"murphy/internal/telemetry"
)

// CaseEnv is the shared evaluation environment for one fuzzed metamorph
// case: every scheme diagnoses the same telemetry through the same pruned
// candidate search space (§4.2), so accuracy differences measure the methods,
// not their inputs. Murphy's diagnosis comes from metamorph.Diagnose's
// reference path, so the Murphy rows of the comparative table score the same
// diagnosis every metamorphic invariant compares against.
type CaseEnv struct {
	// Case is the fuzzed scenario under diagnosis.
	Case *metamorph.Case
	// Graph is the relationship graph grown from the symptom entity.
	Graph *graph.Graph
	// Diag is Murphy's diagnosis of the case's symptom.
	Diag *core.Diagnosis
	// Candidates is the pruned candidate search space every scheme ranks.
	Candidates []telemetry.EntityID
}

// NewCaseEnv diagnoses the case on Murphy's metamorph reference path
// (metamorph.Diagnose with zero Options) and captures the graph and the
// candidate space all baselines share.
func NewCaseEnv(c *metamorph.Case) (*CaseEnv, error) {
	g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
	if err != nil {
		return nil, fmt.Errorf("build graph: %w", err)
	}
	diag, err := metamorph.Diagnose(c, metamorph.Options{})
	if err != nil {
		return nil, fmt.Errorf("murphy: %w", err)
	}
	return &CaseEnv{Case: c, Graph: g, Diag: diag, Candidates: diag.Candidates}, nil
}

// Diagnoser adapts one root-cause analysis method to the comparative
// harness: given a case environment, produce a ranked root-cause list. An
// empty ranking is a valid answer ("cannot diagnose"), scored as a miss.
type Diagnoser interface {
	// Name is the scheme name used in result rows (one of Schemes).
	Name() string
	// Diagnose ranks root causes for the environment's symptom.
	Diagnose(env *CaseEnv) ([]telemetry.EntityID, error)
}

// Diagnosers returns all four methods in the fixed Schemes order.
func Diagnosers() []Diagnoser {
	return []Diagnoser{murphyDiagnoser{}, sageDiagnoser{}, netmedicDiagnoser{}, explainitDiagnoser{}}
}

type murphyDiagnoser struct{}

func (murphyDiagnoser) Name() string { return SchemeMurphy }

func (murphyDiagnoser) Diagnose(env *CaseEnv) ([]telemetry.EntityID, error) {
	return env.Diag.Ranked(), nil
}

type netmedicDiagnoser struct{}

func (netmedicDiagnoser) Name() string { return SchemeNetMedic }

func (netmedicDiagnoser) Diagnose(env *CaseEnv) ([]telemetry.EntityID, error) {
	cfg := netmedic.DefaultConfig()
	cfg.Window = metamorph.BaseConfig().TrainWindow
	nm, err := netmedic.Diagnose(env.Case.DB, env.Graph, env.Case.Symptom, env.Candidates, cfg)
	if err != nil {
		return nil, err
	}
	return netmedic.RankedIDs(nm), nil
}

type explainitDiagnoser struct{}

func (explainitDiagnoser) Name() string { return SchemeExplainIt }

func (explainitDiagnoser) Diagnose(env *CaseEnv) ([]telemetry.EntityID, error) {
	cfg := explainit.DefaultConfig()
	cfg.Window = metamorph.BaseConfig().TrainWindow
	ei, err := explainit.Diagnose(env.Case.DB, env.Case.Symptom, env.Candidates, cfg)
	if err != nil {
		return nil, err
	}
	return explainit.RankedIDs(ei), nil
}

type sageDiagnoser struct{}

func (sageDiagnoser) Name() string { return SchemeSage }

func (sageDiagnoser) Diagnose(env *CaseEnv) ([]telemetry.EntityID, error) {
	return dagRanking(env.Case.DB, env.Case.CallDAG, env.Case.Symptom, metamorph.BaseConfig().TrainWindow, env.Candidates), nil
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
	ds := Diagnosers()
	out := &BaselinesResult{Seed: seed, CasesPerFamily: casesPerFamily, Methods: make(map[string]map[string]FamilyAccuracy, len(ds))}
	for _, d := range ds {
		out.Methods[d.Name()] = make(map[string]FamilyAccuracy, len(metamorph.Families))
	}
	for _, fam := range metamorph.Families {
		tallies := make(map[string]*FamilyAccuracy, len(ds))
		for _, d := range ds {
			tallies[d.Name()] = &FamilyAccuracy{}
		}
		for i := 0; i < casesPerFamily; i++ {
			c, err := metamorph.Generate(fam, i, seed)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			env, err := NewCaseEnv(c)
			if err != nil {
				return nil, fmt.Errorf("harness: %s[%d] seed=%d: %w", fam, i, c.Seed, err)
			}
			for _, d := range ds {
				ranked, err := d.Diagnose(env)
				if err != nil {
					return nil, fmt.Errorf("harness: %s on %s[%d] seed=%d: %w", d.Name(), fam, i, c.Seed, err)
				}
				tallies[d.Name()].observe(ranked, c.Accept)
			}
		}
		for name, t := range tallies {
			t.finish()
			out.Methods[name][fam] = *t
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
}

// RunRegressorSweep reproduces Fig 8a end to end: instead of scoring held-out
// MASE, each candidate regressor is swapped into Murphy's training path via
// core.TrainOpts.Trainer and the full pipeline diagnoses the fuzzed suite.
// A regressor whose training fails on a case (e.g. a degenerate GMM fit)
// scores that case as a miss rather than aborting the sweep.
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
	out := &RegressorSweepResult{Seed: seed, CasesPerFamily: casesPerFamily, Regressors: make(map[string]map[string]FamilyAccuracy, len(SweepRegressors))}
	for _, name := range SweepRegressors {
		out.Regressors[name] = make(map[string]FamilyAccuracy, len(metamorph.Families))
	}
	for _, fam := range metamorph.Families {
		tallies := make(map[string]*FamilyAccuracy, len(SweepRegressors))
		for _, name := range SweepRegressors {
			tallies[name] = &FamilyAccuracy{}
		}
		for i := 0; i < casesPerFamily; i++ {
			c, err := metamorph.Generate(fam, i, seed)
			if err != nil {
				return nil, fmt.Errorf("harness: %w", err)
			}
			g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
			if err != nil {
				return nil, fmt.Errorf("harness: %s[%d] seed=%d: build graph: %w", fam, i, c.Seed, err)
			}
			for _, name := range SweepRegressors {
				ranked := regressorRanking(c, g, trainers[name])
				tallies[name].observe(ranked, c.Accept)
			}
		}
		for name, t := range tallies {
			t.finish()
			out.Regressors[name][fam] = *t
		}
	}
	return out, nil
}

// regressorRanking diagnoses one case with the given factor trainer swapped
// into Murphy's training path; any failure yields an empty ranking (a miss).
func regressorRanking(c *metamorph.Case, g *graph.Graph, tr regress.Trainer) []telemetry.EntityID {
	model, err := core.TrainOpt(context.Background(), c.DB, g, metamorph.BaseConfig(), core.TrainOpts{Now: -1, Trainer: tr})
	if err != nil {
		return nil
	}
	diag, err := model.Diagnose(c.Symptom)
	if err != nil {
		return nil
	}
	return diag.Ranked()
}

// String renders the sweep as a precision grid (regressor × family) plus the
// across-family mean, the end-to-end analogue of Fig 8a's MASE CDF.
func (r *RegressorSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8a end-to-end — Murphy accuracy by factor regressor (seed=%d, %d cases/family)\n", r.Seed, r.CasesPerFamily)
	fams := familyOrder(r.Regressors["ridge"])
	fmt.Fprintf(&b, "%-10s", "regressor")
	for _, fam := range fams {
		fmt.Fprintf(&b, " %13s", fam)
	}
	fmt.Fprintf(&b, " %8s\n", "mean")
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
		fmt.Fprintf(&b, " %8.3f\n", mean)
	}
	return b.String()
}
