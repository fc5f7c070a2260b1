package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"murphy/internal/telemetry"
)

// PredictUnderIntervention implements the Appendix A.2 protocol: given
// overridden metric values for a set of source entities, resample the union
// of the shortest-path subgraphs from each source to the target for `rounds`
// Gibbs passes (deterministically: mean predictions, no noise) and return
// the resulting value of the target metric. Source entities are pinned to
// their overridden values; every other entity starts from its current value.
// ok is false when the model has no target series or no source can reach
// the target. An override naming a series the model does not have moves
// nothing; CheckIntervention reports such overrides.
//
// This is the subroutine behind Fig 8b: more rounds propagate effects across
// cycles further, so prediction accuracy through a cyclic region improves
// with rounds exactly when cyclic influence is real.
func (m *Model) PredictUnderIntervention(overrides map[telemetry.EntityID]map[string]float64, target telemetry.EntityID, targetMetric string, rounds int) (float64, bool) {
	ts, ok := m.idx.slot(target, targetMetric)
	if !ok {
		return 0, false
	}
	if rounds <= 0 {
		rounds = m.cfg.GibbsRounds
	}
	// Union of shortest-path subgraphs with each node's minimum distance
	// from any source.
	dist := make(map[telemetry.EntityID]int)
	pinned := make(map[telemetry.EntityID]bool, len(overrides))
	reached := false
	for src := range overrides {
		pinned[src] = true
		path := m.paths.ShortestPathSubgraph(src, target)
		if path == nil {
			continue
		}
		reached = true
		for d, id := range path {
			if old, ok := dist[id]; !ok || d < old {
				dist[id] = d
			}
		}
	}
	if !reached {
		return 0, false
	}
	order := make([]telemetry.EntityID, 0, len(dist))
	for id := range dist {
		if !pinned[id] {
			order = append(order, id)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if dist[order[i]] != dist[order[j]] {
			return dist[order[i]] < dist[order[j]]
		}
		return order[i] < order[j]
	})
	// Build the start state.
	state := slices.Clone(m.current)
	for src, metrics := range overrides {
		for metric, v := range metrics {
			if s, ok := m.idx.slot(src, metric); ok {
				state[s] = v
			}
		}
	}
	// Deterministic resampling passes.
	var x []float64
	for r := 0; r < rounds; r++ {
		for _, id := range order {
			lo, hi := m.idx.nodeSlots(id)
			for s := lo; s < hi; s++ {
				f := m.factors[s]
				if f == nil {
					continue
				}
				x = featureVector(x, f, state)
				state[s] = f.model.Predict(x)
			}
		}
	}
	return state[ts], true
}

// CheckIntervention validates a what-if question against the model: the
// target and every overridden (entity, metric) must be series the model was
// trained on. The error names the first unknown series, the target before
// the overrides and the overrides in entity, then metric order.
func (m *Model) CheckIntervention(overrides map[telemetry.EntityID]map[string]float64, target telemetry.EntityID, targetMetric string) error {
	if _, ok := m.idx.slot(target, targetMetric); !ok {
		return fmt.Errorf("core: no telemetry for what-if target %s/%s", target, targetMetric)
	}
	var unknown []metricRef
	for src, metrics := range overrides {
		for metric := range metrics {
			if _, ok := m.idx.slot(src, metric); !ok {
				unknown = append(unknown, metricRef{src, metric})
			}
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	first := slices.MinFunc(unknown, func(a, b metricRef) int {
		if c := strings.Compare(string(a.entity), string(b.entity)); c != 0 {
			return c
		}
		return strings.Compare(a.metric, b.metric)
	})
	return fmt.Errorf("core: no telemetry for what-if override %s/%s", first.entity, first.metric)
}
