package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"murphy/internal/timeseries"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(600)
	for _, e := range []*Entity{
		{ID: "vm1", Type: TypeVM, Name: "web-1", App: "shop", Tier: "web"},
		{ID: "vm2", Type: TypeVM, Name: "db-1", App: "shop", Tier: "db"},
		{ID: "h1", Type: TypeHost, Name: "esx-1"},
		{ID: "f1", Type: TypeFlow, Name: "web-1->db-1"},
	} {
		if err := db.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	mustAssoc := func(a, b EntityID, k AssocKind) {
		t.Helper()
		if err := db.Associate(a, b, k); err != nil {
			t.Fatal(err)
		}
	}
	mustAssoc("vm1", "h1", Bidirectional)
	mustAssoc("vm2", "h1", Bidirectional)
	mustAssoc("f1", "vm1", Bidirectional)
	mustAssoc("f1", "vm2", Bidirectional)
	return db
}

func TestAddEntityValidation(t *testing.T) {
	db := NewDB(60)
	if err := db.AddEntity(&Entity{ID: "a", Type: TypeVM}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddEntity(&Entity{ID: "a", Type: TypeVM}); err == nil {
		t.Fatal("duplicate ID should error")
	}
	if err := db.AddEntity(&Entity{}); err == nil {
		t.Fatal("missing ID should error")
	}
	if err := db.AddEntity(nil); err == nil {
		t.Fatal("nil entity should error")
	}
}

// hasEdge reports whether the directed influence edge from→to exists.
func hasEdge(db *DB, from, to EntityID) bool {
	return slices.Contains(db.OutNeighbors(from), to)
}

// inNeighbors returns the entities that may influence id, sorted, as the
// database's in-edge index holds them.
func inNeighbors(db *DB, id EntityID) []EntityID { return sortedKeys(db.in[id]) }

// eventsFor returns the events touching id, ordered by slice.
func eventsFor(db *DB, id EntityID) []Event {
	var out []Event
	for _, ev := range db.EventsSince(0) {
		if ev.Entity == id {
			out = append(out, ev)
		}
	}
	return out
}

func TestAssociations(t *testing.T) {
	db := newTestDB(t)
	if err := db.Associate("vm1", "nope", Bidirectional); err == nil {
		t.Fatal("unknown entity should error")
	}
	if err := db.Associate("vm1", "vm1", Bidirectional); err == nil {
		t.Fatal("self association should error")
	}
	// Bidirectional adds both directed edges.
	if !hasEdge(db, "vm1", "h1") || !hasEdge(db, "h1", "vm1") {
		t.Fatal("bidirectional association should add both edges")
	}
	// Directed adds only one.
	if err := db.Associate("vm1", "vm2", Directed); err != nil {
		t.Fatal(err)
	}
	if !hasEdge(db, "vm1", "vm2") || hasEdge(db, "vm2", "vm1") {
		t.Fatal("directed association should add one edge")
	}
	in := inNeighbors(db, "h1")
	if len(in) != 2 || in[0] != "vm1" || in[1] != "vm2" {
		t.Fatalf("in-neighbors of h1 = %v", in)
	}
	nbrs := db.Neighbors("vm1")
	if len(nbrs) != 3 { // h1, f1, vm2
		t.Fatalf("Neighbors(vm1) = %v", nbrs)
	}
}

func TestObserveAndWindow(t *testing.T) {
	db := newTestDB(t)
	for tt := 0; tt < 5; tt++ {
		if err := db.Observe("vm1", MetricCPU, tt, float64(10*tt)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 5 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.At("vm1", MetricCPU, 3) != 30 {
		t.Fatal("At wrong")
	}
	if !math.IsNaN(db.At("vm1", "unknown_metric", 0)) {
		t.Fatal("missing metric should be NaN")
	}
	w := db.Window("vm1", MetricCPU, 2, 7)
	if len(w) != 5 {
		t.Fatalf("padded window length = %d", len(w))
	}
	if w[0] != 20 || w[2] != 40 || w[3] != 0 || w[4] != 0 {
		t.Fatalf("window = %v (missing should fill with 0)", w)
	}
	// Window of an entirely absent metric: zeros of the right width.
	w = db.Window("vm2", MetricCPU, 0, 3)
	if len(w) != 3 || w[0] != 0 {
		t.Fatalf("absent metric window = %v", w)
	}
	if err := db.Observe("nope", MetricCPU, 0, 1); err == nil {
		t.Fatal("Observe on unknown entity should error")
	}
}

func TestSetSeries(t *testing.T) {
	db := newTestDB(t)
	if err := db.SetSeries("vm1", MetricMem, timeseries.FromValues([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatal("SetSeries should extend timeline")
	}
	if err := db.SetSeries("nope", MetricMem, timeseries.New()); err == nil {
		t.Fatal("unknown entity should error")
	}
	names := db.MetricNames("vm1")
	if len(names) != 1 || names[0] != MetricMem {
		t.Fatalf("MetricNames = %v", names)
	}
}

func TestApps(t *testing.T) {
	db := newTestDB(t)
	members := db.AppMembers("shop")
	if len(members) != 2 {
		t.Fatalf("AppMembers = %v", members)
	}
	if db.AppMembers("ghost") != nil {
		t.Fatal("unknown app should have no members")
	}
}

func TestRemoveEntity(t *testing.T) {
	db := newTestDB(t)
	db.RemoveEntity("h1")
	if db.HasEntity("h1") {
		t.Fatal("entity should be gone")
	}
	if hasEdge(db, "vm1", "h1") || hasEdge(db, "h1", "vm1") {
		t.Fatal("edges touching removed entity should be gone")
	}
	for _, id := range db.Entities() {
		if id == "h1" {
			t.Fatal("order should not contain removed entity")
		}
	}
	db.RemoveEntity("vm1")
	if len(db.AppMembers("shop")) != 1 {
		t.Fatal("app membership should shrink")
	}
	db.RemoveEntity("ghost") // no-op, must not panic
}

func TestRemoveEdgeAndMetric(t *testing.T) {
	db := newTestDB(t)
	db.RemoveEdge("vm1", "h1")
	if hasEdge(db, "vm1", "h1") {
		t.Fatal("edge should be removed")
	}
	if !hasEdge(db, "h1", "vm1") {
		t.Fatal("reverse edge must survive")
	}
	if err := db.Observe("vm1", MetricCPU, 0, 5); err != nil {
		t.Fatal(err)
	}
	db.RemoveMetric("vm1", MetricCPU)
	if db.Series("vm1", MetricCPU) != nil {
		t.Fatal("metric should be removed")
	}
	db.RemoveMetric("ghost", MetricCPU) // no-op
}

func TestCloneIsIndependent(t *testing.T) {
	db := newTestDB(t)
	if err := db.Observe("vm1", MetricCPU, 0, 5); err != nil {
		t.Fatal(err)
	}
	c := db.Clone()
	c.RemoveEntity("vm1")
	if !db.HasEntity("vm1") {
		t.Fatal("clone removal must not affect original")
	}
	if err := c.Observe("vm2", MetricCPU, 0, 99); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(db.At("vm2", MetricCPU, 0)) {
		t.Fatal("clone observation must not affect original")
	}
	// Edges preserved in clone.
	c2 := db.Clone()
	if !hasEdge(c2, "vm1", "h1") || !hasEdge(c2, "f1", "vm2") {
		t.Fatal("clone should preserve edges")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := newTestDB(t)
	for tt := 0; tt < 4; tt++ {
		if err := db.Observe("vm1", MetricCPU, tt, float64(tt)); err != nil {
			t.Fatal(err)
		}
		if err := db.Observe("f1", MetricThroughput, tt, float64(100+tt)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEntities() != db.NumEntities() {
		t.Fatalf("entities %d != %d", got.NumEntities(), db.NumEntities())
	}
	if got.At("vm1", MetricCPU, 2) != 2 || got.At("f1", MetricThroughput, 3) != 103 {
		t.Fatal("series values lost in round trip")
	}
	if !hasEdge(got, "vm1", "h1") || !hasEdge(got, "h1", "vm1") {
		t.Fatal("edges lost in round trip")
	}
	if got.IntervalSeconds != 600 {
		t.Fatal("interval lost")
	}
	if got.Entity("vm1").App != "shop" {
		t.Fatal("entity metadata lost")
	}
}

// TestJSONRoundTripKeepsGaps: a missing point is written as null and read
// back as missing, not as an observed 0, while observed values, zeros
// included, keep their bits; and a fully observed database writes exactly
// the plain number arrays it wrote before gaps had an encoding.
func TestJSONRoundTripKeepsGaps(t *testing.T) {
	db := newTestDB(t)
	for _, tt := range []int{0, 2, 3, 5} {
		if err := db.Observe("vm1", MetricCPU, tt, float64(tt)*0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Observe("f1", MetricThroughput, 5, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cpu_util":[0,null,0.2,0.30000000000000004,null,0.5]`, `"throughput":[null,null,null,null,null,0]`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("snapshot lacks %s:\n%s", want, buf.String())
		}
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []EntityID{"vm1", "f1"} {
		for _, name := range db.MetricNames(id) {
			want, have := db.Series(id, name).Values(), got.Series(id, name).Values()
			if len(have) != len(want) {
				t.Fatalf("%s/%s: %d values after the round trip, want %d", id, name, len(have), len(want))
			}
			for i := range want {
				if math.Float64bits(have[i]) != math.Float64bits(want[i]) && !(math.IsNaN(have[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%s/%s[%d] = %v after the round trip, want %v", id, name, i, have[i], want[i])
				}
			}
		}
	}

	full := newTestDB(t)
	for tt := 0; tt < 3; tt++ {
		if err := full.Observe("vm1", MetricCPU, tt, 1.5+float64(tt)); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := full.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Decoded into plain float arrays and encoded again, the snapshot must
	// come back byte for byte.
	var plain snapshot[[]float64]
	if err := json.Unmarshal(buf.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&plain)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want)+"\n" {
		t.Fatalf("fully observed snapshot changed encoding:\n got %s\nwant %s", buf.String(), want)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Fatal("malformed JSON should error")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"interval_seconds":0}`)); err == nil {
		t.Fatal("zero interval should error")
	}
	bad := `{"interval_seconds":60,"entities":[{"ID":"a","Type":"vm"}],"series":{"ghost":{"cpu_util":[1]}}}`
	if _, err := ReadJSON(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("series for unknown entity should error")
	}
	for _, vals := range []string{`["1"]`, `[true]`, `[[1]]`, `{"a":1}`, `"x"`, `[1e400]`, `[1,{}]`} {
		snap := `{"interval_seconds":60,"entities":[{"id":"a","type":"vm"}],"series":{"a":{"cpu_util":` + vals + `}}}`
		if _, err := ReadJSON(bytes.NewBufferString(snap)); err == nil {
			t.Fatalf("series values %s should error", vals)
		}
	}
}

func TestEntityAndSymptomString(t *testing.T) {
	e := &Entity{ID: "x", Type: TypeVM, Name: "web"}
	if e.String() != "vm:web" {
		t.Fatalf("String = %q", e.String())
	}
	var nilE *Entity
	if nilE.String() != "<nil entity>" {
		t.Fatal("nil entity String should be safe")
	}
	s := Symptom{Entity: "x", Metric: MetricCPU, High: true}
	if s.String() != "high cpu_util on x" {
		t.Fatalf("Symptom.String = %q", s.String())
	}
	s.High = false
	if s.String() != "low cpu_util on x" {
		t.Fatalf("Symptom.String = %q", s.String())
	}
}

func TestEvents(t *testing.T) {
	db := newTestDB(t)
	if err := db.RecordEvent(Event{Slice: 3, Kind: EventScaled, Entity: "vm1", Detail: "vCPUs 4 -> 8"}); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordEvent(Event{Slice: 1, Kind: EventEntityCreated, Entity: "vm2", Detail: "spawned"}); err != nil {
		t.Fatal(err)
	}
	// Removal events may reference gone entities.
	if err := db.RecordEvent(Event{Slice: 5, Kind: EventEntityRemoved, Entity: "old-vm", Detail: "decommissioned"}); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordEvent(Event{Slice: 2, Kind: EventScaled, Entity: "ghost", Detail: "x"}); err == nil {
		t.Fatal("non-removal event for unknown entity should error")
	}
	if err := db.RecordEvent(Event{Slice: -1, Kind: EventScaled, Entity: "vm1"}); err == nil {
		t.Fatal("negative slice should error")
	}
	got := db.EventsSince(2)
	if len(got) != 2 || got[0].Slice != 3 || got[1].Slice != 5 {
		t.Fatalf("EventsSince = %+v", got)
	}
	forVM := eventsFor(db, "vm1")
	if len(forVM) != 1 || forVM[0].Kind != EventScaled {
		t.Fatalf("events for vm1 = %+v", forVM)
	}
	if s := forVM[0].String(); s == "" {
		t.Fatal("event should render")
	}
	// Clone carries events.
	c := db.Clone()
	if len(c.EventsSince(0)) != 3 {
		t.Fatal("clone should carry events")
	}
}

func TestEventsJSONRoundTrip(t *testing.T) {
	db := newTestDB(t)
	if err := db.Observe("vm1", MetricCPU, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordEvent(Event{Slice: 0, Kind: EventConfigChanged, Entity: "vm1", Detail: "mtu 1500 -> 9000"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := got.EventsSince(0)
	if len(evs) != 1 || evs[0].Detail != "mtu 1500 -> 9000" {
		t.Fatalf("events lost in round trip: %+v", evs)
	}
}
