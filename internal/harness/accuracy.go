package harness

import (
	"sort"

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

// observe accumulates one case's ranking into the tally: rank credit is the
// reciprocal rank of the first acceptable entity, top-k counters tick when it
// sits within k. Call finish once every case of the family is in.
func (a *FamilyAccuracy) observe(ranked []telemetry.EntityID, accept map[telemetry.EntityID]bool) {
	a.Cases++
	rank := 0 // 1-based rank of the first acceptable entity
	for k, id := range ranked {
		if accept[id] {
			rank = k + 1
			break
		}
	}
	if rank == 0 {
		return
	}
	a.Precision += 1 / float64(rank)
	if rank <= 1 {
		a.Top1++
	}
	if rank <= 3 {
		a.Top3++
	}
	if rank <= 5 {
		a.Top5++
	}
}

// finish converts the accumulated tallies into per-case means.
func (a *FamilyAccuracy) finish() {
	if a.Cases == 0 {
		return
	}
	n := float64(a.Cases)
	a.Precision /= n
	a.Top1 /= n
	a.Top3 /= n
	a.Top5 /= n
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
