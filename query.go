package murphy

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"murphy/internal/anomaly"
	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// ErrUnknownEntity reports a query against an entity the monitoring database
// does not know. The daemon's query surface maps it to HTTP 404.
var ErrUnknownEntity = errors.New("murphy: unknown entity")

// Topology query bounds.
const (
	// DefaultTopologyDepth is the neighborhood radius used when a topology
	// query names none.
	DefaultTopologyDepth = 2
	// MaxTopologyDepth caps the neighborhood radius; oversized requests are
	// clamped (and the effective depth echoed in the response), never errors.
	MaxTopologyDepth = 6
)

// TopologyNode is one entity in a topology neighborhood.
type TopologyNode struct {
	// Ref is the entity ID.
	Ref telemetry.EntityID `json:"ref"`
	// Type, Name, App, and Tier mirror the entity's metadata.
	Type telemetry.EntityType `json:"type"`
	Name string               `json:"name,omitempty"`
	App  string               `json:"app,omitempty"`
	Tier string               `json:"tier,omitempty"`
	// Hops is the undirected BFS distance from the center entity (0 for the
	// center itself).
	Hops int `json:"hops"`
	// HopsToCenter is the directed forward-edge distance from this node to
	// the center, or -1 when the center is unreachable. A non-negative value
	// means the node can influence the center under the relationship graph's
	// potential-influence semantics (§4.1).
	HopsToCenter int `json:"hops_to_center"`
	// InfluencesCenter is HopsToCenter >= 0, precomputed for operators.
	InfluencesCenter bool `json:"influences_center"`
}

// TopologyEdge is one relationship in a topology neighborhood. A mutual
// association (both directions present) is emitted once with Mutual set.
type TopologyEdge struct {
	From telemetry.EntityID `json:"from"`
	To   telemetry.EntityID `json:"to"`
	// Kind types the relationship by its endpoint entity types,
	// "fromType->toType".
	Kind   string `json:"kind"`
	Mutual bool   `json:"mutual,omitempty"`
}

// Topology is the relationship-graph neighborhood around one entity, as
// served by the daemon's GET /topology. Nodes are sorted by (Hops, Ref) and
// edges by (From, To), so the same database state always serializes to the
// same bytes.
type Topology struct {
	Center telemetry.EntityID `json:"center"`
	// Depth is the effective neighborhood radius (requested, defaulted, or
	// clamped to MaxTopologyDepth).
	Depth int            `json:"depth"`
	Nodes []TopologyNode `json:"nodes"`
	Edges []TopologyEdge `json:"edges"`
}

// Topology returns the relationship-graph neighborhood of radius depth around
// an entity, built live against the current monitoring database (entities
// ingested after the session started are visible). depth <= 0 uses
// DefaultTopologyDepth; anything above MaxTopologyDepth is clamped, with the
// effective depth echoed in the result. Returns ErrUnknownEntity for an
// entity the database does not know.
func (s *System) Topology(entity telemetry.EntityID, depth int) (*Topology, error) {
	if !s.db.HasEntity(entity) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEntity, entity)
	}
	if depth <= 0 {
		depth = DefaultTopologyDepth
	}
	if depth > MaxTopologyDepth {
		depth = MaxTopologyDepth
	}
	g, err := graph.Build(s.db, []telemetry.EntityID{entity}, depth)
	if err != nil {
		return nil, fmt.Errorf("murphy: build topology neighborhood: %w", err)
	}
	// Reverse-BFS distance field toward the center, through the same
	// SubgraphCache machinery a diagnosis shares across candidates.
	toCenter := graph.NewSubgraphCache(g).ReverseDistances(entity)
	hops := undirectedHops(g, entity)

	top := &Topology{Center: entity, Depth: depth}
	for i, id := range g.IDs() {
		n := TopologyNode{Ref: id, Hops: hops[i], HopsToCenter: -1}
		if len(toCenter) > i {
			n.HopsToCenter = toCenter[i]
		}
		n.InfluencesCenter = n.HopsToCenter >= 0
		if ent := s.db.Entity(id); ent != nil {
			n.Type, n.Name, n.App, n.Tier = ent.Type, ent.Name, ent.App, ent.Tier
		}
		top.Nodes = append(top.Nodes, n)
	}
	sort.Slice(top.Nodes, func(i, j int) bool {
		if top.Nodes[i].Hops != top.Nodes[j].Hops {
			return top.Nodes[i].Hops < top.Nodes[j].Hops
		}
		return top.Nodes[i].Ref < top.Nodes[j].Ref
	})
	for ui := 0; ui < g.Len(); ui++ {
		u := g.ID(ui)
		for _, vi := range g.Out(ui) {
			v := g.ID(vi)
			mutual := hasOut(g, vi, ui)
			if mutual && v < u {
				continue // the (smaller, larger) orientation emits the pair
			}
			top.Edges = append(top.Edges, TopologyEdge{
				From:   u,
				To:     v,
				Kind:   edgeKind(s.db, u, v),
				Mutual: mutual,
			})
		}
	}
	sort.Slice(top.Edges, func(i, j int) bool {
		if top.Edges[i].From != top.Edges[j].From {
			return top.Edges[i].From < top.Edges[j].From
		}
		return top.Edges[i].To < top.Edges[j].To
	})
	return top, nil
}

// undirectedHops is the BFS level of every node from src, ignoring edge
// direction — the "how far out in the neighborhood" number operators read.
func undirectedHops(g *graph.Graph, src telemetry.EntityID) []int {
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = -1
	}
	si, ok := g.Index(src)
	if !ok {
		return dist
	}
	dist[si] = 0
	queue := []int{si}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, adj := range [][]int{g.Out(u), g.In(u)} {
			for _, v := range adj {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// hasOut reports whether node u has a directed edge to node v.
func hasOut(g *graph.Graph, u, v int) bool {
	for _, w := range g.Out(u) {
		if w == v {
			return true
		}
	}
	return false
}

// edgeKind types an edge by its endpoint entity types.
func edgeKind(db *telemetry.DB, from, to telemetry.EntityID) string {
	ft, tt := "unknown", "unknown"
	if e := db.Entity(from); e != nil && e.Type != "" {
		ft = string(e.Type)
	}
	if e := db.Entity(to); e != nil && e.Type != "" {
		tt = string(e.Type)
	}
	return ft + "->" + tt
}

// MetricSummary is the sliding-window statistics of one metric, as served by
// the daemon's per-entity performance endpoint. Float fields are pointers so
// an empty window (nothing observed) serializes as null, never NaN.
type MetricSummary struct {
	Metric string `json:"metric"`
	// Observed and Missing partition the window's slices.
	Observed int `json:"observed"`
	Missing  int `json:"missing,omitempty"`
	// Latest is the newest observed value in the window.
	Latest *float64 `json:"latest"`
	// Mean and the percentiles summarize the observed values.
	Mean *float64 `json:"mean"`
	P50  *float64 `json:"p50"`
	P95  *float64 `json:"p95"`
	P99  *float64 `json:"p99"`
	// AnomalyZ is the continuous detector's signed z-score of the current
	// value against the trailing baseline (null while history is too short);
	// Anomalous marks |z| at or above the detector threshold.
	AnomalyZ  *float64 `json:"anomaly_z"`
	Anomalous bool     `json:"anomalous,omitempty"`
}

// FactorHealth is the wire form of one trained factor's residual health (see
// core.FactorStore): whether the incremental trainer holds a fresh model for
// the metric and how far it has drifted.
type FactorHealth struct {
	Metric   string `json:"metric"`
	Trained  bool   `json:"trained"`
	Features int    `json:"features"`
	Slides   int    `json:"slides"`
	// DriftScore is the MASE drift score (0 while evidence is insufficient);
	// the trainer refits the factor once it exceeds DriftThreshold.
	DriftScore     *float64 `json:"drift_score"`
	DriftThreshold float64  `json:"drift_threshold"`
}

// EntitySummary is one entity's performance view over the trailing window:
// per-metric summary statistics, anomaly scores from the continuous detector,
// and — when the session trains incrementally — trained-factor residual
// health. Metrics and factors are sorted by name, so the same database state
// always serializes to the same bytes.
type EntitySummary struct {
	Entity telemetry.EntityID   `json:"entity"`
	Type   telemetry.EntityType `json:"type"`
	Name   string               `json:"name,omitempty"`
	App    string               `json:"app,omitempty"`
	Tier   string               `json:"tier,omitempty"`
	// Window is the effective summary window width in slices; FromSlice and
	// ToSlice are its inclusive bounds ([0, -1] on an empty database).
	Window    int             `json:"window"`
	FromSlice int             `json:"from_slice"`
	ToSlice   int             `json:"to_slice"`
	Metrics   []MetricSummary `json:"metrics"`
	// Factors is present only when incremental training is configured and
	// the store has trained this entity.
	Factors []FactorHealth `json:"factors,omitempty"`
}

// EntitySummary summarizes one entity's performance over the trailing window
// slices (window <= 0 uses the window the session trains on, with an unset
// Config.TrainWindow falling back to the default; wider-than-history requests
// are clamped). Returns ErrUnknownEntity for an entity the database
// does not know.
func (s *System) EntitySummary(entity telemetry.EntityID, window int) (*EntitySummary, error) {
	if !s.db.HasEntity(entity) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEntity, entity)
	}
	n := s.db.Len()
	if window <= 0 {
		window = core.Sanitized(s.cfg).TrainWindow
	}
	if window > n {
		window = n
	}
	lo, hi := n-window, n
	sum := &EntitySummary{
		Entity:    entity,
		Window:    window,
		FromSlice: lo,
		ToSlice:   hi - 1,
	}
	if ent := s.db.Entity(entity); ent != nil {
		sum.Type, sum.Name, sum.App, sum.Tier = ent.Type, ent.Name, ent.App, ent.Tier
	}
	det := anomaly.NewDetector()
	for _, metric := range s.db.MetricNames(entity) {
		ms := MetricSummary{Metric: metric}
		if window > 0 {
			raw := s.db.RawWindow(entity, metric, lo, hi)
			obs := make([]float64, 0, len(raw))
			for _, v := range raw {
				if v == v {
					obs = append(obs, v)
					latest := v
					ms.Latest = &latest
				}
			}
			ms.Observed = len(obs)
			ms.Missing = len(raw) - len(obs)
			if len(obs) > 0 {
				mean := 0.0
				for _, v := range obs {
					mean += v
				}
				mean /= float64(len(obs))
				ms.Mean = fptr(mean)
				sort.Float64s(obs)
				ms.P50 = fptr(quantile(obs, 0.50))
				ms.P95 = fptr(quantile(obs, 0.95))
				ms.P99 = fptr(quantile(obs, 0.99))
			}
			if z, ok := det.Score(s.db, entity, metric, hi-1); ok {
				ms.AnomalyZ = fptr(z)
				ms.Anomalous = z >= det.ZThreshold || z <= -det.ZThreshold
			}
		}
		sum.Metrics = append(sum.Metrics, ms)
	}
	if s.incStore != nil {
		for _, h := range s.incStore.EntityHealth(entity) {
			sum.Factors = append(sum.Factors, FactorHealth{
				Metric:         h.Metric,
				Trained:        h.Trained,
				Features:       h.Features,
				Slides:         h.Slides,
				DriftScore:     fptr(h.DriftScore),
				DriftThreshold: h.DriftThreshold,
			})
		}
	}
	return sum, nil
}

// quantile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// non-empty slice, by linear interpolation between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
