package harness

import (
	"fmt"
	"strings"

	"murphy/internal/core"
	"murphy/internal/enterprise"
	"murphy/internal/evalx"
	"murphy/internal/graph"
	"murphy/internal/sage"
	"murphy/internal/telemetry"
)

// Table1Options parameterizes the production-incident experiment (§6.2).
type Table1Options struct {
	// Gen sizes the enterprise environment each incident is replayed in.
	Gen enterprise.GenOptions
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
}

// DefaultTable1Options returns an environment sized like the evaluation's.
func DefaultTable1Options() Table1Options {
	gen := enterprise.DefaultGenOptions()
	gen.Apps = 8
	gen.Hosts = 8
	gen.Steps = 320
	return Table1Options{Gen: gen, Samples: 400, TrainWindow: 280}
}

// Table1Row is one incident's outcome across schemes.
type Table1Row struct {
	Index int
	Name  string
	// FPs per scheme at the calibrated cutoff; -1 marks a scheme that
	// cannot run in this environment (Sage, which needs a causal DAG).
	FPs map[string]int
	// Recall01 per scheme at the calibrated cutoff.
	Recall map[string]float64
}

// Table1Result is the full Table 1 reproduction.
type Table1Result struct {
	Opts Table1Options
	Rows []Table1Row
	// Cutoff per scheme chosen by the §6.2 calibration protocol.
	Cutoff map[string]int
	// AvgFPs per scheme.
	AvgFPs map[string]float64
	// MeanRecall per scheme across all incidents.
	MeanRecall map[string]float64
	// SageApplicable is always false here: the environment is cyclic.
	SageApplicable bool
}

// table1Schemes are the schemes that can run on the cyclic enterprise input.
var table1Schemes = []string{SchemeMurphy, SchemeNetMedic, SchemeExplainIt}

// RunTable1 replays the 13 incidents, runs each applicable scheme, calibrates
// per-scheme cutoffs for zero false negatives on the calibration incidents,
// and counts false positives per incident.
func RunTable1(opts Table1Options) (*Table1Result, error) {
	cfg := murphyConfig(opts.Samples, opts.TrainWindow)
	type caseResult struct {
		inc     *enterprise.Incident
		ranked  map[string][]telemetry.EntityID
		truth   map[telemetry.EntityID]bool
		isCalib bool
	}
	var cases []caseResult
	// Probe incident count from one generation.
	probeEnv, err := enterprise.Generate(opts.Gen)
	if err != nil {
		return nil, err
	}
	probe, err := enterprise.Incidents(probeEnv)
	if err != nil {
		return nil, err
	}
	sageOK := false
	for _, meta := range probe {
		env, inc, err := enterprise.RunIncident(opts.Gen, enterprise.ByIndex(meta.Index))
		if err != nil {
			return nil, fmt.Errorf("harness: incident %d: %w", meta.Index, err)
		}
		db := env.DB
		// Seed with all entities of the affected application and expand four
		// hops, as the paper's incident dataset was collected (§5.1.1).
		appName := env.AppNames()[inc.AppIx]
		seeds := append([]telemetry.EntityID(nil), db.AppMembers(appName)...)
		seeds = append(seeds, inc.Symptom.Entity)
		g, err := graph.Build(db, seeds, 4)
		if err != nil {
			return nil, err
		}
		model, err := core.Train(db, g, cfg)
		if err != nil {
			return nil, err
		}
		diag, err := model.Diagnose(inc.Symptom)
		if err != nil {
			return nil, err
		}
		ranked, err := rankSchemes(db, g, inc.Symptom, nil, diag, cfg.TrainWindow)
		if err != nil {
			return nil, err
		}

		// Sage structurally cannot run: the relationship graph is cyclic and
		// no causal DAG exists for arbitrary enterprise applications (§6.2).
		if _, err := sage.Train(db, g, sage.DefaultConfig()); err == nil {
			sageOK = true // would indicate the environment lost its cycles
		}

		cases = append(cases, caseResult{
			inc:     inc,
			ranked:  ranked,
			truth:   evalx.AcceptSet(inc.Truth),
			isCalib: inc.Calibration,
		})
	}

	res := &Table1Result{
		Opts:           opts,
		Cutoff:         map[string]int{},
		AvgFPs:         map[string]float64{},
		MeanRecall:     map[string]float64{},
		SageApplicable: sageOK,
	}
	// Calibrate per scheme.
	for _, s := range table1Schemes {
		var calib []evalx.CalibrationCase
		for _, c := range cases {
			if c.isCalib {
				calib = append(calib, evalx.CalibrationCase{Ranked: c.ranked[s], Truth: c.truth})
			}
		}
		k, _ := evalx.CalibrateCutoff(calib)
		res.Cutoff[s] = k
	}
	// Score per incident.
	for _, c := range cases {
		row := Table1Row{Index: c.inc.Index, Name: c.inc.Name, FPs: map[string]int{}, Recall: map[string]float64{}}
		for _, s := range table1Schemes {
			cut := res.Cutoff[s]
			row.FPs[s] = evalx.FalsePositives(c.ranked[s], c.truth, cut)
			row.Recall[s] = evalx.Recall01(c.ranked[s], c.truth, cut)
			res.AvgFPs[s] += float64(row.FPs[s])
			res.MeanRecall[s] += row.Recall[s]
		}
		row.FPs[SchemeSage] = -1
		res.Rows = append(res.Rows, row)
	}
	for _, s := range table1Schemes {
		res.AvgFPs[s] /= float64(len(cases))
		res.MeanRecall[s] /= float64(len(cases))
	}
	return res, nil
}

// String prints the Table 1 rows.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1 — false positives per incident (operator-decided ground truth)\n")
	fmt.Fprintf(&b, "  %-55s %8s %9s %10s\n", "incident", "Murphy", "NetMedic", "ExplainIT")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %2d. %-51s %8d %9d %10d\n", row.Index, row.Name,
			row.FPs[SchemeMurphy], row.FPs[SchemeNetMedic], row.FPs[SchemeExplainIt])
	}
	fmt.Fprintf(&b, "  %-55s %8.1f %9.1f %10.1f\n", "average false positives",
		r.AvgFPs[SchemeMurphy], r.AvgFPs[SchemeNetMedic], r.AvgFPs[SchemeExplainIt])
	fmt.Fprintf(&b, "  mean recall: Murphy %.2f, NetMedic %.2f, ExplainIT %.2f (cutoffs %v)\n",
		r.MeanRecall[SchemeMurphy], r.MeanRecall[SchemeNetMedic], r.MeanRecall[SchemeExplainIt], r.Cutoff)
	b.WriteString("  Sage: not applicable (requires a causal DAG; the enterprise relationship graph is cyclic)\n")
	return b.String()
}
