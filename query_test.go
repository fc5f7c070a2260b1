package murphy

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"murphy/internal/telemetry"
)

func TestTopologyNeighborhood(t *testing.T) {
	sys := testSystem(t)
	top, err := sys.Topology("web", 1)
	if err != nil {
		t.Fatal(err)
	}
	if top.Center != "web" || top.Depth != 1 {
		t.Fatalf("center/depth = %s/%d, want web/1", top.Center, top.Depth)
	}
	wantRefs := []telemetry.EntityID{"web", "backend", "flow"} // hops 0, then 1 sorted by ref
	if len(top.Nodes) != len(wantRefs) {
		t.Fatalf("got %d nodes, want %d: %+v", len(top.Nodes), len(wantRefs), top.Nodes)
	}
	for i, want := range wantRefs {
		n := top.Nodes[i]
		if n.Ref != want {
			t.Fatalf("node %d = %s, want %s", i, n.Ref, want)
		}
		wantHops := 1
		if want == "web" {
			wantHops = 0
		}
		if n.Hops != wantHops {
			t.Errorf("node %s: hops %d, want %d", n.Ref, n.Hops, wantHops)
		}
		// All demo associations are bidirectional, so every neighborhood node
		// can influence the center.
		if !n.InfluencesCenter || n.HopsToCenter != wantHops {
			t.Errorf("node %s: influence (%v, %d), want (true, %d)", n.Ref, n.InfluencesCenter, n.HopsToCenter, wantHops)
		}
		if n.Type == "" || n.App != "shop" {
			t.Errorf("node %s: metadata not populated: %+v", n.Ref, n)
		}
	}
	// Bidirectional pairs are emitted once, marked mutual, typed by endpoints.
	if len(top.Edges) != 2 {
		t.Fatalf("got %d edges, want 2: %+v", len(top.Edges), top.Edges)
	}
	for _, e := range top.Edges {
		if !e.Mutual {
			t.Errorf("edge %s->%s: want mutual", e.From, e.To)
		}
		if e.Kind == "" || e.Kind == "unknown->unknown" {
			t.Errorf("edge %s->%s: untyped kind %q", e.From, e.To, e.Kind)
		}
	}
}

func TestTopologyDepthDefaultsAndClamp(t *testing.T) {
	sys := testSystem(t)
	top, err := sys.Topology("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if top.Depth != DefaultTopologyDepth {
		t.Fatalf("default depth = %d, want %d", top.Depth, DefaultTopologyDepth)
	}
	top, err = sys.Topology("web", 999)
	if err != nil {
		t.Fatal(err)
	}
	if top.Depth != MaxTopologyDepth {
		t.Fatalf("clamped depth = %d, want %d", top.Depth, MaxTopologyDepth)
	}
	// The full component is 4 entities; depth 6 reaches all of them.
	if len(top.Nodes) != 4 {
		t.Fatalf("got %d nodes at max depth, want 4", len(top.Nodes))
	}
}

func TestTopologyUnknownEntity(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Topology("ghost", 2); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("err = %v, want ErrUnknownEntity", err)
	}
	if _, err := sys.EntitySummary("ghost", 10); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("summary err = %v, want ErrUnknownEntity", err)
	}
}

// TestTopologySeesIngestedEntities pins the live-build behavior: an entity
// registered after New is queryable without rebuilding the System.
func TestTopologySeesIngestedEntities(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddEntity(&telemetry.Entity{ID: "cache", Type: telemetry.TypeContainer, App: "shop"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Associate("cache", "backend", telemetry.Directed); err != nil {
		t.Fatal(err)
	}
	top, err := sys.Topology("cache", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Nodes) != 2 || top.Nodes[1].Ref != "backend" {
		t.Fatalf("live topology wrong: %+v", top.Nodes)
	}
	// Directed cache->backend: backend cannot influence cache.
	if top.Nodes[1].InfluencesCenter {
		t.Error("backend should not influence cache over a directed edge from cache")
	}
	e := top.Edges[0]
	if e.From != "cache" || e.To != "backend" || e.Mutual {
		t.Fatalf("edge = %+v, want directed cache->backend", e)
	}
}

func TestEntitySummaryStatistics(t *testing.T) {
	sys := testSystem(t)
	sum, err := sys.EntitySummary("web", 50)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Entity != "web" || sum.Window != 50 || sum.App != "shop" {
		t.Fatalf("header wrong: %+v", sum)
	}
	if sum.FromSlice != 190 || sum.ToSlice != 239 {
		t.Fatalf("window bounds [%d, %d], want [190, 239]", sum.FromSlice, sum.ToSlice)
	}
	if len(sum.Metrics) != 1 || sum.Metrics[0].Metric != telemetry.MetricCPU {
		t.Fatalf("metrics = %+v, want one %s entry", sum.Metrics, telemetry.MetricCPU)
	}
	ms := sum.Metrics[0]
	if ms.Observed != 50 || ms.Missing != 0 {
		t.Fatalf("observed/missing = %d/%d, want 50/0", ms.Observed, ms.Missing)
	}
	for name, p := range map[string]*float64{"latest": ms.Latest, "mean": ms.Mean, "p50": ms.P50, "p95": ms.P95, "p99": ms.P99, "anomaly_z": ms.AnomalyZ} {
		if p == nil {
			t.Fatalf("%s is null on a fully observed window", name)
		}
	}
	if !(*ms.P50 <= *ms.P95 && *ms.P95 <= *ms.P99) {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", *ms.P50, *ms.P95, *ms.P99)
	}
	// The demo incident spikes the last 6 slices 300 load units up: the
	// current value is far outside the baseline.
	if !ms.Anomalous || *ms.AnomalyZ <= 0 {
		t.Fatalf("incident slice not flagged: z=%v anomalous=%v", *ms.AnomalyZ, ms.Anomalous)
	}
}

func TestEntitySummaryDefaultAndClampedWindow(t *testing.T) {
	sys := testSystem(t)
	sum, err := sys.EntitySummary("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Window != 220 { // the session's TrainWindow
		t.Fatalf("default window = %d, want 220", sum.Window)
	}
	sum, err = sys.EntitySummary("web", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Window != 240 { // clamped to db length
		t.Fatalf("clamped window = %d, want 240", sum.Window)
	}
	// A zero Config trains on the default window (all 240 slices), and the
	// default summary window is that same sanitized width.
	zero, err := New(demoDB(t), WithConfig(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err = zero.EntitySummary("web", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Window != 240 || sum.FromSlice != 0 || sum.ToSlice != 239 || sum.Metrics[0].Observed != 240 {
		t.Fatalf("zero-config default window %d [%d, %d] with %d observations, want 240 [0, 239] with 240",
			sum.Window, sum.FromSlice, sum.ToSlice, sum.Metrics[0].Observed)
	}
}

func TestEntitySummaryFactorHealth(t *testing.T) {
	sys := testSystem(t, WithIncrementalTraining(IncrementalTraining{}))
	if _, err := sys.Diagnose(telemetry.Symptom{Entity: "backend", Metric: telemetry.MetricCPU, High: true}); err != nil {
		t.Fatal(err)
	}
	sum, err := sys.EntitySummary("backend", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Factors) == 0 {
		t.Fatal("no factor health after an incremental diagnosis")
	}
	f := sum.Factors[0]
	if f.Metric != telemetry.MetricCPU || !f.Trained || f.DriftThreshold <= 0 {
		t.Fatalf("factor health wrong: %+v", f)
	}
	if f.DriftScore == nil {
		t.Fatal("drift score is null; want 0 while evidence is insufficient")
	}
	// Without incremental training configured there is no factor section.
	plain := testSystem(t)
	sum, err = plain.EntitySummary("backend", 50)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Factors != nil {
		t.Fatalf("factors = %+v on a non-incremental session, want none", sum.Factors)
	}
}

// TestQueryResponsesDeterministic pins the byte-identical contract: two
// systems over identical databases serialize the same topology and summary.
func TestQueryResponsesDeterministic(t *testing.T) {
	a, b := testSystem(t), testSystem(t)
	for _, enc := range []func(*System) []byte{
		func(s *System) []byte {
			top, err := s.Topology("web", 2)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := json.Marshal(top)
			if err != nil {
				t.Fatal(err)
			}
			return buf
		},
		func(s *System) []byte {
			sum, err := s.EntitySummary("web", 60)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := json.Marshal(sum)
			if err != nil {
				t.Fatal(err)
			}
			return buf
		},
	} {
		if ba, bb := enc(a), enc(b); string(ba) != string(bb) {
			t.Fatalf("responses differ across identical systems:\n%s\n%s", ba, bb)
		}
	}
}

func TestQuerySchemaRoundTrip(t *testing.T) {
	sys := testSystem(t)
	top, err := sys.Topology("web", 2)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	var top2 Topology
	if err := json.Unmarshal(buf, &top2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*top, top2) {
		t.Fatalf("topology did not round-trip:\n%+v\n%+v", *top, top2)
	}
	sum, err := sys.EntitySummary("web", 60)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var sum2 EntitySummary
	if err := json.Unmarshal(buf, &sum2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*sum, sum2) {
		t.Fatalf("summary did not round-trip:\n%+v\n%+v", *sum, sum2)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8},
	}
	for _, tc := range cases {
		if got := quantile(sorted, tc.p); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
}
