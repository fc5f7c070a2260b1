package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"murphy/internal/telemetry"
)

// randomGraph builds a random relationship graph over n nodes with roughly
// density*n*n directed edges (bidirectional associations, so 2-cycles
// abound), returning both the DB and the built graph.
func randomGraph(t testing.TB, seed int64, n int, density float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	db := telemetry.NewDB(60)
	ids := make([]telemetry.EntityID, n)
	for i := 0; i < n; i++ {
		ids[i] = telemetry.EntityID(fmt.Sprintf("n%d", i))
		if err := db.AddEntity(&telemetry.Entity{ID: ids[i], Type: telemetry.TypeVM, Name: string(ids[i])}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				if err := db.Associate(ids[i], ids[j], telemetry.Bidirectional); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Always connect sequentially so the graph is one component.
	for i := 1; i < n; i++ {
		if !slices.Contains(db.OutNeighbors(ids[i-1]), ids[i]) {
			if err := db.Associate(ids[i-1], ids[i], telemetry.Bidirectional); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := Build(db, []telemetry.EntityID{ids[0]}, -1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// distance returns the directed BFS distance from a to d, or -1: the oracle
// of the shortest-path property.
func distance(g *Graph, a, d telemetry.EntityID) int {
	ai, ok := g.index[a]
	if !ok {
		return -1
	}
	di, ok := g.index[d]
	if !ok {
		return -1
	}
	return g.bfsDist(ai, true)[di]
}

// Property: every node of a shortest-path subgraph lies on a shortest path —
// dist(a,v) + dist(v,d) == dist(a,d) — and the sequence is ordered by
// distance from a with both endpoints present. A second request for the same
// (a, d) is a memo hit that returns the first answer.
func TestShortestPathSubgraphProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := randomGraph(t, seed, n, 0.2)
		a := g.ID(rng.Intn(g.Len()))
		d := g.ID(rng.Intn(g.Len()))
		c := NewSubgraphCache(g)
		hits := 0
		c.SetHook(func(hit bool) {
			if hit {
				hits++
			}
		})
		sp := c.ShortestPathSubgraph(a, d)
		if again := c.ShortestPathSubgraph(a, d); !slices.Equal(again, sp) || (a != d && hits != 1) {
			return false
		}
		total := distance(g, a, d)
		if total == -1 {
			return sp == nil
		}
		if len(sp) == 0 || sp[0] != a || sp[len(sp)-1] != d {
			return a == d && len(sp) == 1 // self path
		}
		prev := -1
		for _, v := range sp {
			da := distance(g, a, v)
			dd := distance(g, v, d)
			if da == -1 || dd == -1 || da+dd != total {
				return false
			}
			if da < prev {
				return false // must be ordered by distance from a
			}
			prev = da
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of directed edges is even when every association is
// bidirectional, and CountCycles2 equals half the number of mutual pairs.
func TestBidirectionalEdgeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomGraph(t, seed, n, 0.3)
		if g.NumEdges()%2 != 0 {
			return false
		}
		return g.CountCycles2() == g.NumEdges()/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: InCycle is true for every node with a bidirectional neighbor.
func TestInCycleProperty(t *testing.T) {
	g := randomGraph(t, 5, 10, 0.3)
	for i := 0; i < g.Len(); i++ {
		if len(g.Out(i)) > 0 && !g.InCycle(i) {
			t.Fatalf("node %d has a bidirectional edge but InCycle is false", i)
		}
	}
}

// Property: pruned candidates never include the symptom and are all
// reachable through anomalous entities only.
func TestPrunedCandidatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := randomGraph(t, seed, n, 0.25)
		anom := make(map[telemetry.EntityID]bool)
		for i := 0; i < g.Len(); i++ {
			if rng.Float64() < 0.5 {
				anom[g.ID(i)] = true
			}
		}
		sym := g.ID(rng.Intn(g.Len()))
		got := g.PrunedCandidates(sym, func(id telemetry.EntityID) bool { return anom[id] }, 0)
		for _, c := range got {
			if c == sym {
				return false
			}
			if !anom[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
