// Package harness regenerates every table and figure of the paper's
// evaluation (§6) on the emulated environments: one runner per experiment,
// each returning a structured result whose String() prints the same rows or
// series the paper reports. The benchmarks in the repository root and the
// murphybench CLI are thin wrappers around these runners.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"murphy/internal/core"
	"murphy/internal/explainit"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/netmedic"
	"murphy/internal/telemetry"
)

// Scheme names used in result rows.
const (
	SchemeMurphy    = "Murphy"
	SchemeSage      = "Sage"
	SchemeNetMedic  = "NetMedic"
	SchemeExplainIt = "ExplainIT"
)

// Schemes is the fixed comparison order used in all printed results.
var Schemes = []string{SchemeMurphy, SchemeSage, SchemeNetMedic, SchemeExplainIt}

// murphyConfig returns the Murphy configuration used across experiments;
// samples is reduced from the paper's 5000 to keep harness runs fast — the
// code path is identical and the t-test remains well-powered.
func murphyConfig(samples, trainWindow int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Samples = samples
	cfg.TrainWindow = trainWindow
	return cfg
}

// hotelContention is the performance drivers' shared fixture: the v-th
// hotel-reservation contention incident of a sweep (CPU, memory and disk
// faults in turn at intensity 0.5, after 4 prior incidents) and its
// relationship graph.
func hotelContention(steps int, seed int64, v int) (*microsim.Scenario, *graph.Graph, error) {
	kinds := []microsim.FaultKind{microsim.FaultCPU, microsim.FaultMem, microsim.FaultDisk}
	sc, err := microsim.Contention(microsim.ContentionOptions{
		Topo: "hotel", Steps: steps, PriorIncidents: 4,
		Kind: kinds[v%len(kinds)], Intensity: 0.5, Seed: seed + int64(v),
	})
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		return nil, nil, err
	}
	return sc, g, nil
}

// schemeRankings trains Murphy on one microsim scenario, diagnoses its
// symptom and ranks it with every scheme (rankSchemes).
func schemeRankings(sc *microsim.Scenario, cfg core.Config) (map[string][]telemetry.EntityID, error) {
	db := sc.Result.DB
	g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		return nil, fmt.Errorf("harness: build graph: %w", err)
	}
	model, err := core.Train(db, g, cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: train murphy: %w", err)
	}
	diag, err := model.Diagnose(sc.Symptom)
	if err != nil {
		return nil, fmt.Errorf("harness: murphy diagnose: %w", err)
	}
	return rankSchemes(db, g, sc.Symptom, sc.CallDAG, diag, cfg.TrainWindow)
}

// rankSchemes is the harness's one comparison path: it returns every
// scheme's ranked root-cause list for Murphy's diagnosis diag of symptom.
// Every scheme ranks the same pruned candidate search space (§4.2),
// diag.Candidates, so accuracy differences measure the methods, not their
// inputs. ExplainIt and NetMedic read the trailing window; Sage receives
// the causal call DAG (see dagRanking), so when the true cause lies outside
// it Sage simply cannot rank it. An empty ranking is a valid answer
// ("cannot diagnose"), scored as a miss.
func rankSchemes(db *telemetry.DB, g *graph.Graph, symptom telemetry.Symptom, callDAG [][2]telemetry.EntityID, diag *core.Diagnosis, window int) (map[string][]telemetry.EntityID, error) {
	eiCfg := explainit.DefaultConfig()
	eiCfg.Window = window
	ei, err := explainit.Diagnose(db, symptom, diag.Candidates, eiCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: explainit: %w", err)
	}
	nmCfg := netmedic.DefaultConfig()
	nmCfg.Window = window
	nm, err := netmedic.Diagnose(db, g, symptom, diag.Candidates, nmCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: netmedic: %w", err)
	}
	return map[string][]telemetry.EntityID{
		SchemeMurphy:    diag.Ranked(),
		SchemeSage:      dagRanking(db, callDAG, symptom, window, diag.Candidates),
		SchemeNetMedic:  netmedic.RankedIDs(nm),
		SchemeExplainIt: explainit.RankedIDs(ei),
	}, nil
}

// fmtCurve renders a K→accuracy curve as "K=1:0.75 K=5:0.86 ...".
func fmtCurve(curve map[int]float64) string {
	ks := make([]int, 0, len(curve))
	for k := range curve {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	parts := make([]string, 0, len(ks))
	for _, k := range ks {
		parts = append(parts, fmt.Sprintf("K=%d:%.2f", k, curve[k]))
	}
	return strings.Join(parts, " ")
}
