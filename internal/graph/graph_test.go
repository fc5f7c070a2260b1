package graph

import (
	"fmt"
	"testing"

	"murphy/internal/telemetry"
)

// buildDB creates entities a..e and associates them per the given pairs.
func buildDB(t *testing.T, n int, bidir [][2]string, directed [][2]string) *telemetry.DB {
	t.Helper()
	db := telemetry.NewDB(60)
	for i := 0; i < n; i++ {
		id := telemetry.EntityID(fmt.Sprintf("n%d", i))
		if err := db.AddEntity(&telemetry.Entity{ID: id, Type: telemetry.TypeVM, Name: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range bidir {
		if err := db.Associate(telemetry.EntityID(p[0]), telemetry.EntityID(p[1]), telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range directed {
		if err := db.Associate(telemetry.EntityID(p[0]), telemetry.EntityID(p[1]), telemetry.Directed); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestBuildExpandsFullComponent(t *testing.T) {
	// Chain n0 - n1 - n2 - n3, n4 isolated.
	db := buildDB(t, 5, [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n2", "n3"}}, nil)
	g, err := Build(db, []telemetry.EntityID{"n0"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if g.Contains("n4") {
		t.Fatal("isolated node must not be included")
	}
	if g.NumEdges() != 6 { // 3 bidirectional pairs
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
}

func TestBuildHopLimit(t *testing.T) {
	db := buildDB(t, 5, [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n2", "n3"}, {"n3", "n4"}}, nil)
	g, err := Build(db, []telemetry.EntityID{"n0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 { // n0, n1, n2
		t.Fatalf("Len = %d, want 3", g.Len())
	}
}

func TestBuildErrors(t *testing.T) {
	db := buildDB(t, 2, nil, nil)
	if _, err := Build(db, nil, -1); err == nil {
		t.Fatal("empty seeds should error")
	}
	if _, err := Build(db, []telemetry.EntityID{"ghost"}, -1); err == nil {
		t.Fatal("unknown seed should error")
	}
}

func TestBuildMultipleSeeds(t *testing.T) {
	db := buildDB(t, 4, [][2]string{{"n0", "n1"}, {"n2", "n3"}}, nil)
	g, err := Build(db, []telemetry.EntityID{"n0", "n2", "n0"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("two components from two seeds: Len = %d", g.Len())
	}
}

func TestInOutNeighbors(t *testing.T) {
	db := buildDB(t, 3, nil, [][2]string{{"n0", "n1"}, {"n2", "n1"}})
	g, err := Build(db, []telemetry.EntityID{"n0", "n1", "n2"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := g.Index("n1")
	if len(g.In(i1)) != 2 || len(g.Out(i1)) != 0 {
		t.Fatalf("n1 in/out = %v/%v", g.In(i1), g.Out(i1))
	}
	ids := g.InIDs("n1")
	if len(ids) != 2 {
		t.Fatalf("InIDs = %v", ids)
	}
	if g.InIDs("ghost") != nil {
		t.Fatal("unknown entity InIDs should be nil")
	}
}

func TestCycleCounting(t *testing.T) {
	// Bidirectional pair = one 2-cycle; triangle of directed edges = one 3-cycle.
	db := buildDB(t, 5, [][2]string{{"n0", "n1"}}, [][2]string{{"n2", "n3"}, {"n3", "n4"}, {"n4", "n2"}})
	g, err := Build(db, []telemetry.EntityID{"n0", "n1", "n2", "n3", "n4"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CountCycles2(); got != 1 {
		t.Fatalf("CountCycles2 = %d, want 1", got)
	}
	if got := g.CountCycles3(); got != 1 {
		t.Fatalf("CountCycles3 = %d, want 1", got)
	}
}

func TestCycles3FromBidirectionalTriangle(t *testing.T) {
	// A bidirectional triangle contains two directed 3-cycles (one per
	// orientation).
	db := buildDB(t, 3, [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n0", "n2"}}, nil)
	g, _ := Build(db, []telemetry.EntityID{"n0"}, -1)
	if got := g.CountCycles3(); got != 2 {
		t.Fatalf("CountCycles3 = %d, want 2", got)
	}
	if got := g.CountCycles2(); got != 3 {
		t.Fatalf("CountCycles2 = %d, want 3", got)
	}
}

func TestInCycleAndIsDAG(t *testing.T) {
	db := buildDB(t, 4, nil, [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n2", "n0"}, {"n2", "n3"}})
	g, _ := Build(db, []telemetry.EntityID{"n0", "n3"}, -1)
	if g.IsDAG() {
		t.Fatal("graph with a 3-cycle is not a DAG")
	}
	i0, _ := g.Index("n0")
	i3, _ := g.Index("n3")
	if !g.InCycle(i0) {
		t.Fatal("n0 is on a cycle")
	}
	if g.InCycle(i3) {
		t.Fatal("n3 is not on a cycle")
	}
	dag := buildDB(t, 3, nil, [][2]string{{"n0", "n1"}, {"n1", "n2"}})
	gd, _ := Build(dag, []telemetry.EntityID{"n0"}, -1)
	if !gd.IsDAG() {
		t.Fatal("chain should be a DAG")
	}
}

func TestShortestPathSubgraph(t *testing.T) {
	// Diamond: n0→n1→n3, n0→n2→n3, plus long detour n0→n4→n5→n3.
	db := buildDB(t, 6, nil, [][2]string{
		{"n0", "n1"}, {"n1", "n3"}, {"n0", "n2"}, {"n2", "n3"},
		{"n0", "n4"}, {"n4", "n5"}, {"n5", "n3"},
	})
	g, _ := Build(db, []telemetry.EntityID{"n0"}, -1)
	sp := NewSubgraphCache(g).ShortestPathSubgraph("n0", "n3")
	if len(sp) != 4 {
		t.Fatalf("subgraph = %v, want n0,n1,n2,n3", sp)
	}
	if sp[0] != "n0" || sp[len(sp)-1] != "n3" {
		t.Fatalf("order wrong: %v", sp)
	}
	for _, id := range sp {
		if id == "n4" || id == "n5" {
			t.Fatal("detour nodes must be excluded")
		}
	}
}

func TestShortestPathSubgraphEdgeCases(t *testing.T) {
	db := buildDB(t, 3, nil, [][2]string{{"n0", "n1"}})
	g, _ := Build(db, []telemetry.EntityID{"n0", "n1", "n2"}, -1)
	c := NewSubgraphCache(g)
	if sp := c.ShortestPathSubgraph("n1", "n0"); sp != nil {
		t.Fatalf("unreachable should be nil, got %v", sp)
	}
	sp := c.ShortestPathSubgraph("n0", "n0")
	if len(sp) != 1 || sp[0] != "n0" {
		t.Fatalf("self path = %v", sp)
	}
	if c.ShortestPathSubgraph("ghost", "n0") != nil {
		t.Fatal("unknown source should be nil")
	}
	if c.ShortestPathSubgraph("n0", "ghost") != nil {
		t.Fatal("unknown target should be nil")
	}
}

func TestPrunedCandidates(t *testing.T) {
	// Star around n0 with a second ring; only some nodes "anomalous".
	db := buildDB(t, 6, [][2]string{
		{"n0", "n1"}, {"n0", "n2"}, {"n1", "n3"}, {"n2", "n4"}, {"n4", "n5"},
	}, nil)
	g, _ := Build(db, []telemetry.EntityID{"n0"}, -1)
	anomalous := func(id telemetry.EntityID) bool {
		return id == "n2" || id == "n4" || id == "n3"
	}
	got := g.PrunedCandidates("n0", anomalous, 0)
	// n2 anomalous -> expanded -> n4 anomalous -> expanded -> n5 not.
	// n1 not anomalous -> n3 never reached even though anomalous.
	want := map[telemetry.EntityID]bool{"n2": true, "n4": true}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected candidate %s", id)
		}
	}
	// Cap.
	got = g.PrunedCandidates("n0", anomalous, 1)
	if len(got) != 1 {
		t.Fatalf("capped candidates = %v", got)
	}
	if g.PrunedCandidates("ghost", anomalous, 0) != nil {
		t.Fatal("unknown symptom should be nil")
	}
}

func TestPrunedCandidatesFollowsBothDirections(t *testing.T) {
	// Directed edge n1→n0 only; pruning BFS from n0 must still reach n1,
	// because influence toward the symptom flows along in-edges.
	db := buildDB(t, 2, nil, [][2]string{{"n1", "n0"}})
	g, _ := Build(db, []telemetry.EntityID{"n0", "n1"}, -1)
	got := g.PrunedCandidates("n0", func(telemetry.EntityID) bool { return true }, 0)
	if len(got) != 1 || got[0] != "n1" {
		t.Fatalf("candidates = %v", got)
	}
}

func TestReverseDistances(t *testing.T) {
	// Directed chain n0 -> n1 -> n2, plus n3 hanging off n2 (n2 -> n3).
	db := buildDB(t, 4, nil, [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n2", "n3"}})
	g, err := Build(db, []telemetry.EntityID{"n0"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSubgraphCache(g)
	toN2 := c.ReverseDistances("n2")
	want := map[telemetry.EntityID]int{"n0": 2, "n1": 1, "n2": 0, "n3": -1}
	for id, d := range want {
		i, ok := g.Index(id)
		if !ok {
			t.Fatalf("%s missing from graph", id)
		}
		if toN2[i] != d {
			t.Errorf("dist(%s -> n2) = %d, want %d", id, toN2[i], d)
		}
	}
	// The memoized field is shared with ShortestPathSubgraph's reverse BFS.
	if again := c.ReverseDistances("n2"); &again[0] != &toN2[0] {
		t.Error("second call did not reuse the memoized distance field")
	}
	if c.ReverseDistances("ghost") != nil {
		t.Error("unknown destination should return nil")
	}
}
