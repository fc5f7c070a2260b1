// Package graph implements Murphy's relationship graph (§4.1): the directed
// potential-influence graph grown by BFS from a seed set of affected
// entities, plus the graph algorithms the inference engine needs — shortest-
// path subgraphs between candidate and symptom, cycle statistics (§2.2), and
// the threshold-pruned candidate search space (§4.2).
package graph

import (
	"fmt"
	"sort"

	"murphy/internal/telemetry"
)

// Graph is a directed relationship graph over a subset of the entities in a
// monitoring database. Node indices are stable and dense.
type Graph struct {
	ids   []telemetry.EntityID
	index map[telemetry.EntityID]int
	out   [][]int
	in    [][]int
}

// Build grows the relationship graph from the seed set by repeated
// neighborhood expansion (S = neighbors(S)), up to maxHops levels; maxHops<0
// means no limit (expand to the reachable component). The edges of the
// resulting graph are exactly the database's influence edges restricted to
// the selected entities.
func Build(db *telemetry.DB, seeds []telemetry.EntityID, maxHops int) (*Graph, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("graph: empty seed set")
	}
	g := &Graph{index: make(map[telemetry.EntityID]int)}
	visited := make(map[telemetry.EntityID]bool)
	var frontier []telemetry.EntityID
	for _, s := range seeds {
		if !db.HasEntity(s) {
			return nil, fmt.Errorf("graph: seed %q not in database", s)
		}
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, s)
			g.addNode(s)
		}
	}
	for hop := 0; maxHops < 0 || hop < maxHops; hop++ {
		var next []telemetry.EntityID
		for _, u := range frontier {
			for _, v := range db.Neighbors(u) {
				if !visited[v] {
					visited[v] = true
					g.addNode(v)
					next = append(next, v)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	// Materialize edges among selected nodes.
	g.out = make([][]int, len(g.ids))
	g.in = make([][]int, len(g.ids))
	for ui, u := range g.ids {
		for _, v := range db.OutNeighbors(u) {
			if vi, ok := g.index[v]; ok {
				g.out[ui] = append(g.out[ui], vi)
				g.in[vi] = append(g.in[vi], ui)
			}
		}
	}
	for i := range g.out {
		sort.Ints(g.out[i])
		sort.Ints(g.in[i])
	}
	return g, nil
}

func (g *Graph) addNode(id telemetry.EntityID) {
	g.index[id] = len(g.ids)
	g.ids = append(g.ids, id)
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.ids) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, adj := range g.out {
		n += len(adj)
	}
	return n
}

// IDs returns the entity IDs in node-index order. The slice is shared;
// treat it as read-only.
func (g *Graph) IDs() []telemetry.EntityID { return g.ids }

// ID returns the entity ID of node i.
func (g *Graph) ID(i int) telemetry.EntityID { return g.ids[i] }

// Index returns the node index of an entity and whether it is present.
func (g *Graph) Index(id telemetry.EntityID) (int, bool) {
	i, ok := g.index[id]
	return i, ok
}

// Contains reports whether the entity is a node of the graph.
func (g *Graph) Contains(id telemetry.EntityID) bool {
	_, ok := g.index[id]
	return ok
}

// Out returns the out-neighbor indices of node i (shared; read-only).
func (g *Graph) Out(i int) []int { return g.out[i] }

// In returns the in-neighbor indices of node i (shared; read-only). These
// are the in_nbrs(v) over which the MRF factor P_v conditions.
func (g *Graph) In(i int) []int { return g.in[i] }

// InIDs returns the in-neighbor entity IDs of an entity.
func (g *Graph) InIDs(id telemetry.EntityID) []telemetry.EntityID {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	out := make([]telemetry.EntityID, len(g.in[i]))
	for k, j := range g.in[i] {
		out[k] = g.ids[j]
	}
	return out
}

// CountCycles2 returns the number of 2-cycles (u→v and v→u with u < v).
// Bidirectional associations make these ubiquitous (§2.2).
func (g *Graph) CountCycles2() int {
	n := 0
	for u := range g.out {
		for _, v := range g.out[u] {
			if u < v && g.hasEdge(v, u) {
				n++
			}
		}
	}
	return n
}

// CountCycles3 returns the number of directed 3-cycles u→v→w→u counted once
// per node set with a fixed starting orientation (u is the smallest index).
func (g *Graph) CountCycles3() int {
	n := 0
	for u := range g.out {
		for _, v := range g.out[u] {
			if v <= u {
				continue
			}
			for _, w := range g.out[v] {
				if w <= u || w == v {
					continue
				}
				if g.hasEdge(w, u) {
					n++
				}
			}
		}
	}
	return n
}

func (g *Graph) hasEdge(u, v int) bool {
	adj := g.out[u]
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// InCycle reports whether node i lies on some directed cycle, computed by
// checking whether i can reach itself.
func (g *Graph) InCycle(i int) bool {
	seen := make([]bool, len(g.ids))
	stack := append([]int(nil), g.out[i]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == i {
			return true
		}
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack, g.out[u]...)
	}
	return false
}

// IsDAG reports whether the graph has no directed cycles.
func (g *Graph) IsDAG() bool {
	indeg := make([]int, len(g.ids))
	for _, adj := range g.out {
		for _, v := range adj {
			indeg[v]++
		}
	}
	var queue []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, v := range g.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return seen == len(g.ids)
}

// bfsDist returns, for every node, the directed distance from src following
// edges in the given direction ("out" follows u→v, "in" follows v→u);
// unreachable nodes get -1.
func (g *Graph) bfsDist(src int, forward bool) []int {
	dist := make([]int, len(g.ids))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		adj := g.out[u]
		if !forward {
			adj = g.in[u]
		}
		for _, v := range adj {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// shortestPathWith returns the nodes lying on at least one shortest directed
// path from node ai to node di, or nil when di is unreachable from ai. toD is
// the reverse-BFS distance field toward di (every node's distance to di),
// which SubgraphCache.ShortestPathSubgraph computes once per symptom and
// reuses across candidates.
func (g *Graph) shortestPathWith(ai, di int, toD []int) []telemetry.EntityID {
	fromA := g.bfsDist(ai, true)
	total := fromA[di]
	if total == -1 {
		return nil
	}
	type nd struct{ idx, dist int }
	var nodes []nd
	for i := range g.ids {
		if fromA[i] >= 0 && toD[i] >= 0 && fromA[i]+toD[i] == total {
			nodes = append(nodes, nd{i, fromA[i]})
		}
	}
	sort.Slice(nodes, func(x, y int) bool {
		if nodes[x].dist != nodes[y].dist {
			return nodes[x].dist < nodes[y].dist
		}
		return nodes[x].idx < nodes[y].idx
	})
	out := make([]telemetry.EntityID, len(nodes))
	for i, n := range nodes {
		out[i] = g.ids[n.idx]
	}
	return out
}

// AnomalyFn reports whether an entity currently looks anomalous enough to
// keep exploring through. The MRF core supplies a conservative-threshold
// implementation.
type AnomalyFn func(id telemetry.EntityID) bool

// PrunedCandidates runs the candidate search-space pruning of §4.2: a BFS
// from the symptom entity that expands only through entities whose metrics
// are above conservative thresholds, returning all visited anomalous
// entities (excluding the symptom entity itself). maxCandidates caps the
// result (0 means unlimited). The same pruned space is fed to every
// comparison scheme for fairness.
func (g *Graph) PrunedCandidates(symptom telemetry.EntityID, anomalous AnomalyFn, maxCandidates int) []telemetry.EntityID {
	si, ok := g.index[symptom]
	if !ok {
		return nil
	}
	visited := make([]bool, len(g.ids))
	visited[si] = true
	queue := []int{si}
	var out []telemetry.EntityID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		// Explore both edge directions: influence may flow either way.
		for _, adj := range [][]int{g.out[u], g.in[u]} {
			for _, v := range adj {
				if visited[v] {
					continue
				}
				visited[v] = true
				if !anomalous(g.ids[v]) {
					continue // prune: do not output or expand through it
				}
				out = append(out, g.ids[v])
				if maxCandidates > 0 && len(out) >= maxCandidates {
					return out
				}
				queue = append(queue, v)
			}
		}
	}
	return out
}
