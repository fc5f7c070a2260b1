package microsim

import (
	"math"
	"math/rand"
	"testing"

	"murphy/internal/telemetry"
	"murphy/internal/tracing"
)

func emittedStore(t *testing.T, rate float64) (*Sim, *Result, *tracing.Store, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	sim := &Sim{
		Topo:      HotelReservation(),
		Steps:     30,
		Workloads: []*Workload{{Name: "c", Entry: "frontend", RPS: ConstantRPS(100, 2, rng)}},
		Seed:      4,
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	store := tracing.NewStore(rate)
	n, err := sim.EmitTraces(res, store, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sim, res, store, n
}

func TestEmitTracesStructure(t *testing.T) {
	sim, _, store, n := emittedStore(t, 1)
	if n != 30*3 {
		t.Fatalf("emitted = %d, want 90", n)
	}
	if store.Len() != n {
		t.Fatal("all traces should be sampled at rate 1")
	}
	for _, tr := range store.Traces() {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if root := tr.Spans[0].Service; root != "frontend" {
			t.Fatalf("root service = %s", root)
		}
		// One span per service reached through the call tree per call.
		if len(tr.Spans) != 9 { // frontend + search,recommendation,user,reservation + geo,rate,profile(x2)
			t.Fatalf("span count = %d", len(tr.Spans))
		}
	}
	_ = sim
}

func TestEmitTracesCallGraphMatchesTopology(t *testing.T) {
	sim, _, store, _ := emittedStore(t, 1)
	edges := callEdges(store)
	want := map[[2]string]bool{}
	for name, def := range sim.Topo.Services {
		for _, c := range def.Children {
			want[[2]string{name, c}] = true
		}
	}
	// Only edges reachable from the entry appear.
	for e := range edges {
		if !want[e] {
			t.Fatalf("extracted edge %v not in topology", e)
		}
	}
	// All edges in frontend's call tree must appear.
	mult := sim.Topo.callMultipliers("frontend")
	for pair := range want {
		if mult[pair[0]] > 0 && !edges[pair] {
			t.Fatalf("edge %v missing from extraction", pair)
		}
	}
}

// callEdges returns the caller→callee service pairs of the stored traces:
// each span's parent service and its own, when the two differ.
func callEdges(store *tracing.Store) map[[2]string]bool {
	edges := map[[2]string]bool{}
	for _, tr := range store.Traces() {
		service := make(map[tracing.SpanID]string, len(tr.Spans))
		for _, s := range tr.Spans {
			service[s.ID] = s.Service
		}
		for _, s := range tr.Spans[1:] {
			if caller := service[s.Parent]; caller != s.Service {
				edges[[2]string{caller, s.Service}] = true
			}
		}
	}
	return edges
}

// tracedLatency returns a service's mean span duration in ms for each of the
// first slices slices of the stored traces, NaN for a slice without one.
func tracedLatency(store *tracing.Store, service string, slices int) []float64 {
	sum := make([]float64, slices)
	n := make([]float64, slices)
	for _, tr := range store.Traces() {
		if tr.Slice < 0 || tr.Slice >= slices {
			continue
		}
		for _, s := range tr.Spans {
			if s.Service == service {
				sum[tr.Slice] += float64(s.DurationUS) / 1000
				n[tr.Slice]++
			}
		}
	}
	for i := range sum {
		sum[i] /= n[i] // 0/0 is NaN
	}
	return sum
}

func TestEmitTracesLatencyMatchesTelemetry(t *testing.T) {
	_, res, store, _ := emittedStore(t, 1)
	// The root span duration should track the recorded frontend latency.
	recorded := res.DB.Series(res.ServiceEntity["frontend"], telemetry.MetricLatency).Values()
	traced := tracedLatency(store, "frontend", 30)
	for slice := 5; slice < 10; slice++ {
		if math.IsNaN(traced[slice]) {
			t.Fatal("traced latency missing")
		}
		rel := math.Abs(traced[slice]-recorded[slice]) / recorded[slice]
		if rel > 0.25 {
			t.Fatalf("slice %d: traced %v vs recorded %v", slice, traced[slice], recorded[slice])
		}
	}
}

func TestEmitTracesSampling(t *testing.T) {
	_, _, store, n := emittedStore(t, 0.3)
	if n == 0 || n >= 90 {
		t.Fatalf("sampled count = %d, want strictly between 0 and 90", n)
	}
	if store.Dropped()+store.Len() != 90 {
		t.Fatal("dropped+kept should cover all offers")
	}
}

func TestEmitTracesErrors(t *testing.T) {
	sim, res, _, _ := emittedStore(t, 1)
	if _, err := sim.EmitTraces(res, tracing.NewStore(1), 0, 1); err == nil {
		t.Fatal("zero tracesPerSlice should error")
	}
}
