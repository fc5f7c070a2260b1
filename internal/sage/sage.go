// Package sage implements the Sage baseline (Gan et al., ASPLOS 2021) at the
// level the paper's comparison depends on: a counterfactual graphical model
// over a *causal DAG* — the microservice call graph — with one learned
// per-node model conditioned on the node's parents. The structural property
// the evaluation exercises is preserved faithfully: Sage refuses cyclic
// inputs, reasons only inside the call tree of the affected user-facing
// service, and therefore cannot name a root cause that lies outside its DAG
// (§6.1), while performing well when the DAG is the right model (§6.3).
//
// The authors' implementation uses conditional variational autoencoders per
// node; this reproduction substitutes per-node ridge regressors (documented
// in DESIGN.md), which keeps the counterfactual mechanics — intervene on a
// node's resource metrics, propagate downstream through the DAG, measure the
// predicted QoS improvement — identical in shape.
package sage

import (
	"errors"
	"fmt"
	"sort"

	"murphy/internal/graph"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// ErrCyclic is returned when the supplied dependency graph is not a DAG.
// Sage's model cannot represent cycles (§2.3); callers in cyclic
// environments must prune edges first or skip the scheme entirely.
var ErrCyclic = errors.New("sage: dependency graph contains cycles; Sage requires a causal DAG")

// Config holds Sage's tunables.
type Config struct {
	// Window is the training window in slices.
	Window int
	// Lambda is the per-node ridge penalty.
	Lambda float64
	// HealthyQuantile is the training-window quantile used as the "normal"
	// value a counterfactual intervention restores a metric to.
	HealthyQuantile float64
	// MinImprovement drops candidates whose counterfactual improves the
	// symptom by less than this fraction of its historical std.
	MinImprovement float64
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{Window: 300, Lambda: 1.0, HealthyQuantile: 0.5, MinImprovement: 0.05}
}

// Model is a trained Sage instance for one symptom environment.
type Model struct {
	cfg     Config
	db      *telemetry.DB
	g       *graph.Graph
	topo    []int // topological order of node indices
	parents [][]int
	// factors[node][metric] predicts the metric from the node's parents'
	// metrics (and is how interventions propagate downstream).
	factors map[int]map[string]*regress.Ridge
	// current value per (node index, metric).
	current map[int]map[string]float64
	lo, hi  int
}

// Train fits Sage on the dependency DAG g. Edges must point from cause to
// effect: a slow callee slows its caller, so latency edges run callee →
// caller, as in microsim.VictimCallDAG, the DAG the §6 experiments supply.
// The graph is whatever DAG the environment can honestly provide. Returns
// ErrCyclic for non-DAG input.
func Train(db *telemetry.DB, g *graph.Graph, cfg Config) (*Model, error) {
	if !g.IsDAG() {
		return nil, ErrCyclic
	}
	if cfg.Window <= 8 {
		cfg.Window = DefaultConfig().Window
	}
	if cfg.HealthyQuantile <= 0 || cfg.HealthyQuantile >= 1 {
		cfg.HealthyQuantile = DefaultConfig().HealthyQuantile
	}
	if db.Len() < 8 {
		return nil, fmt.Errorf("sage: not enough telemetry (%d slices)", db.Len())
	}
	m := &Model{
		cfg:     cfg,
		db:      db,
		g:       g,
		factors: make(map[int]map[string]*regress.Ridge),
		current: make(map[int]map[string]float64),
	}
	m.hi = db.Len()
	m.lo = m.hi - cfg.Window
	if m.lo < 0 {
		m.lo = 0
	}
	m.topo = topoOrder(g)
	m.parents = make([][]int, g.Len())
	for i := range m.parents {
		m.parents[i] = g.In(i)
	}
	// Cache windows and currents.
	windows := make(map[int]map[string][]float64, g.Len())
	for i, id := range g.IDs() {
		windows[i] = make(map[string][]float64)
		m.current[i] = make(map[string]float64)
		for _, metric := range db.MetricNames(id) {
			w := db.Window(id, metric, m.lo, m.hi)
			windows[i][metric] = w
			m.current[i][metric] = w[len(w)-1]
		}
	}
	// Fit per-node factors on parent metrics.
	for i, id := range g.IDs() {
		m.factors[i] = make(map[string]*regress.Ridge)
		var cols [][]float64
		for _, p := range m.parents[i] {
			for _, pm := range db.MetricNames(g.ID(p)) {
				cols = append(cols, windows[p][pm])
			}
		}
		for _, metric := range db.MetricNames(id) {
			rg := regress.NewRidge(cfg.Lambda)
			if err := rg.Fit(cols, windows[i][metric]); err != nil {
				return nil, fmt.Errorf("sage: fit %s/%s: %w", id, metric, err)
			}
			m.factors[i][metric] = rg
		}
	}
	return m, nil
}

// topoOrder returns a topological order of the (acyclic) graph.
func topoOrder(g *graph.Graph) []int {
	n := g.Len()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			indeg[v]++
		}
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.Out(u) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order
}

// Ranked is one scored candidate.
type Ranked struct {
	Entity telemetry.EntityID
	// Improvement is the predicted reduction of the symptom metric (in
	// historical-std units) if the candidate's metrics were restored to
	// healthy values.
	Improvement float64
}

// Diagnose ranks root causes for the symptom among candidates. Candidates
// outside the DAG — and any true root cause whose influence reaches the
// symptom only through edges the DAG cannot express — are unscorable and
// silently dropped; this is the structural limitation §6.1 demonstrates.
func (m *Model) Diagnose(symptom telemetry.Symptom, candidates []telemetry.EntityID) ([]Ranked, error) {
	si, ok := m.g.Index(symptom.Entity)
	if !ok {
		return nil, fmt.Errorf("sage: symptom entity %q not in DAG", symptom.Entity)
	}
	base := m.propagate(si, symptom.Metric, -1, nil)
	hist := m.db.Window(symptom.Entity, symptom.Metric, m.lo, m.hi)
	_, hstd := stats.MeanStd(hist)
	if hstd == 0 {
		hstd = 1
	}
	var out []Ranked
	seen := make(map[telemetry.EntityID]bool, len(candidates))
	for _, cand := range candidates {
		if seen[cand] {
			continue
		}
		seen[cand] = true
		ci, ok := m.g.Index(cand)
		if !ok || ci == si {
			continue
		}
		healthy := m.healthyValues(ci)
		cf := m.propagate(si, symptom.Metric, ci, healthy)
		impr := (base - cf) / hstd
		if !symptom.High {
			impr = -impr
		}
		if impr >= m.cfg.MinImprovement {
			out = append(out, Ranked{Entity: cand, Improvement: impr})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Improvement != out[j].Improvement {
			return out[i].Improvement > out[j].Improvement
		}
		return out[i].Entity < out[j].Entity
	})
	return out, nil
}

// healthyValues returns the intervention values for a node: each metric
// restored to its healthy training quantile.
func (m *Model) healthyValues(node int) map[string]float64 {
	id := m.g.ID(node)
	out := make(map[string]float64)
	for _, metric := range m.db.MetricNames(id) {
		w := m.db.Window(id, metric, m.lo, m.hi)
		out[metric] = stats.Quantile(w, m.cfg.HealthyQuantile)
	}
	return out
}

// propagate computes the model's prediction of (symptom node, metric) under
// an optional intervention: node `fix` (or -1 for none) has its metrics
// clamped to the given values, every other node's metrics are re-predicted
// from its parents in topological order, and observed current values are
// used for nodes upstream of any change.
func (m *Model) propagate(symptomNode int, symptomMetric string, fix int, fixVals map[string]float64) float64 {
	state := make(map[int]map[string]float64, m.g.Len())
	changed := make([]bool, m.g.Len())
	for _, u := range m.topo {
		if u == fix {
			state[u] = fixVals
			changed[u] = true
			continue
		}
		// A node is re-predicted only when some ancestor changed; otherwise
		// its observed current values stand.
		affected := false
		for _, p := range m.parents[u] {
			if changed[p] {
				affected = true
				break
			}
		}
		if !affected {
			state[u] = m.current[u]
			continue
		}
		changed[u] = true
		vals := make(map[string]float64)
		var feats []float64
		for _, p := range m.parents[u] {
			for _, pm := range m.db.MetricNames(m.g.ID(p)) {
				feats = append(feats, state[p][pm])
			}
		}
		for metric, f := range m.factors[u] {
			vals[metric] = f.Predict(feats)
		}
		state[u] = vals
	}
	return state[symptomNode][symptomMetric]
}

// RankedIDs extracts the ordered entity IDs from a ranking.
func RankedIDs(rs []Ranked) []telemetry.EntityID {
	out := make([]telemetry.EntityID, len(rs))
	for i, r := range rs {
		out[i] = r.Entity
	}
	return out
}
