package core

import (
	"slices"

	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// seriesIndex is the dense layout of one graph's (entity, metric) series
// under one set of metric names: a slot per series in graph order (node by
// node, each node's metrics in the order its source listed them), each
// node's slot range, each node's candidate feature slots (every metric of
// every in-neighbour, in graph order) and every slot's ranking tie-break
// key. The model, the sampling kernel and the factor store index their
// per-series state by slot, so a training pass resolves no series by name.
//
// An index is immutable once built. A factor store builds a new one only
// when the graph's metric names change, and every model keeps the index it
// was trained under: factors hold their features as slots of that index.
type seriesIndex struct {
	g     *graph.Graph
	refs  []metricRef // slot → series
	keys  []string    // slot → refs[slot].String(), the ranking tie-break key
	first []int32     // node i owns slots [first[i], first[i+1])
	names [][]string  // node i's metric names, in slot order
	cand  [][]int32   // node i's candidate feature slots
	// slotOf serves the lookups by name (public accessors, what-if
	// overrides, snapshot adoption); no training pass consults it.
	slotOf map[metricRef]int32
}

// newSeriesIndex lays out g's series; names[i] lists node i's metrics.
func newSeriesIndex(g *graph.Graph, names [][]string) *seriesIndex {
	ids := g.IDs()
	n := 0
	for _, ns := range names {
		n += len(ns)
	}
	x := &seriesIndex{
		g:      g,
		refs:   make([]metricRef, 0, n),
		keys:   make([]string, 0, n),
		first:  make([]int32, len(ids)+1),
		names:  names,
		cand:   make([][]int32, len(ids)),
		slotOf: make(map[metricRef]int32, n),
	}
	for i, id := range ids {
		x.first[i] = int32(len(x.refs))
		for _, name := range names[i] {
			ref := metricRef{id, name}
			x.slotOf[ref] = int32(len(x.refs))
			x.refs = append(x.refs, ref)
			x.keys = append(x.keys, ref.String())
		}
	}
	x.first[len(ids)] = int32(n)
	for i := range ids {
		var cand []int32
		for _, j := range g.In(i) {
			for s := x.first[j]; s < x.first[j+1]; s++ {
				cand = append(cand, s)
			}
		}
		x.cand[i] = cand
	}
	return x
}

// sameNames reports whether names lists exactly the metric names the index
// was built from.
func (x *seriesIndex) sameNames(names [][]string) bool {
	for i, ns := range names {
		if !slices.Equal(ns, x.names[i]) {
			return false
		}
	}
	return true
}

// slot returns the slot of (id, metric), ok=false when the index has no
// such series.
func (x *seriesIndex) slot(id telemetry.EntityID, metric string) (int32, bool) {
	s, ok := x.slotOf[metricRef{id, metric}]
	return s, ok
}

// nodeSlots returns the entity's slot range [lo, hi), empty when the entity
// is not a node of the graph.
func (x *seriesIndex) nodeSlots(id telemetry.EntityID) (lo, hi int32) {
	i, ok := x.g.Index(id)
	if !ok {
		return 0, 0
	}
	return x.first[i], x.first[i+1]
}
