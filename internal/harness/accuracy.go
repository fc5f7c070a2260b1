package harness

import (
	"sort"

	"murphy/internal/evalx"
	"murphy/internal/metamorph"
	"murphy/internal/telemetry"
)

// FamilyAccuracy is the accuracy of one fuzzed scenario family.
type FamilyAccuracy struct {
	// Cases is how many fuzzed cases were diagnosed.
	Cases int `json:"cases"`
	// Precision is the mean reciprocal rank of the first acceptable entity
	// in the certified ranking (1.0 = always ranked first, 0 = never found).
	Precision float64 `json:"precision"`
	// Top1/Top3/Top5 are the fractions of cases with an acceptable entity
	// in the top k of the certified ranking (top-k recall, §6.1).
	Top1 float64 `json:"top1"`
	Top3 float64 `json:"top3"`
	Top5 float64 `json:"top5"`
}

// familyAccuracy scores one family's rankings against their accept sets
// (precision and top-k recall as evalx defines them).
func familyAccuracy(rankings [][]telemetry.EntityID, accepts []map[telemetry.EntityID]bool) FamilyAccuracy {
	return FamilyAccuracy{
		Cases:     len(rankings),
		Precision: evalx.MeanPrecision(rankings, accepts),
		Top1:      evalx.TopKRecall(rankings, accepts, 1),
		Top3:      evalx.TopKRecall(rankings, accepts, 3),
		Top5:      evalx.TopKRecall(rankings, accepts, 5),
	}
}

// familyOrder returns metamorph's fixed family order, with any extra keys
// (a baseline written by a newer suite) appended alphabetically.
func familyOrder(m map[string]FamilyAccuracy) []string {
	seen := map[string]bool{}
	var out []string
	for _, fam := range metamorph.Families {
		if _, ok := m[fam]; ok {
			out = append(out, fam)
			seen[fam] = true
		}
	}
	var extra []string
	for fam := range m {
		if !seen[fam] {
			extra = append(extra, fam)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
