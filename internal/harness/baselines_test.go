package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/metamorph"
	"murphy/internal/telemetry"
)

// baselineCase generates one family's index-0 case of the fixed test seed and
// diagnoses it with Murphy the way RankCase does, returning the inputs
// rankSchemes takes so the tests can vary them.
func baselineCase(t *testing.T, fam string) (*metamorph.Case, *graph.Graph, *core.Diagnosis) {
	t.Helper()
	c, err := metamorph.Generate(fam, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := metamorph.Diagnose(c, metamorph.Options{})
	if err != nil {
		t.Fatalf("%s: %v", fam, err)
	}
	return c, g, diag
}

// rankCaseWith ranks c with every scheme from the given Murphy diagnosis and
// call DAG.
func rankCaseWith(t *testing.T, c *metamorph.Case, g *graph.Graph, diag *core.Diagnosis, callDAG [][2]telemetry.EntityID) map[string][]telemetry.EntityID {
	t.Helper()
	rs, err := rankSchemes(c.DB, g, c.Symptom, callDAG, diag, metamorph.BaseConfig().TrainWindow)
	if err != nil {
		t.Fatalf("%s: %v", c.Family, err)
	}
	return rs
}

func sameRanking(a, b []telemetry.EntityID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBaselineDeterminism checks every scheme's ranking is byte-identical
// across repeated runs, across a freshly regenerated identical case (fresh
// training included), and across candidate-order permutation. Each baseline
// dedupes its candidates and breaks score ties by entity ID, so the input
// order the harness happens to enumerate must never leak into the ranking.
func TestBaselineDeterminism(t *testing.T) {
	for _, fam := range metamorph.Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			c, g, diag := baselineCase(t, fam)
			ref := rankCaseWith(t, c, g, diag, c.CallDAG)
			again := rankCaseWith(t, c, g, diag, c.CallDAG)
			c2, err := metamorph.Generate(fam, 0, 1) // identical case, fresh training
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := RankCase(c2)
			if err != nil {
				t.Fatalf("fresh case: %v", err)
			}
			// Candidate-order permutations: reversed and seed-shuffled, with
			// every candidate duplicated to exercise dedup.
			perms := map[string]map[string][]telemetry.EntityID{}
			for name, perm := range map[string][]telemetry.EntityID{
				"reversed": reversedIDs(diag.Candidates),
				"shuffled": shuffledIDs(diag.Candidates, 42),
				"duped":    append(append([]telemetry.EntityID(nil), diag.Candidates...), diag.Candidates...),
			} {
				pd := *diag
				pd.Candidates = perm
				perms[name] = rankCaseWith(t, c, g, &pd, c.CallDAG)
			}
			for _, s := range Schemes {
				if !sameRanking(ref[s], again[s]) {
					t.Errorf("%s: ranking differs across runs on the same case:\n%v\n%v", s, ref[s], again[s])
				}
				if !sameRanking(ref[s], fresh[s]) {
					t.Errorf("%s: ranking differs across identically generated cases:\n%v\n%v", s, ref[s], fresh[s])
				}
				for name, got := range perms {
					if !sameRanking(ref[s], got[s]) {
						t.Errorf("%s: ranking depends on %s candidate order:\n%v\n%v", s, name, ref[s], got[s])
					}
				}
			}
			// Sage additionally must not care about the call DAG's edge-list
			// order.
			if len(c.CallDAG) > 0 {
				got := rankCaseWith(t, c, g, diag, reversedEdges(c.CallDAG))
				if !sameRanking(ref[SchemeSage], got[SchemeSage]) {
					t.Errorf("Sage: ranking depends on call-DAG edge order:\n%v\n%v", ref[SchemeSage], got[SchemeSage])
				}
			}
		})
	}
}

func reversedIDs(ids []telemetry.EntityID) []telemetry.EntityID {
	out := make([]telemetry.EntityID, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}

func shuffledIDs(ids []telemetry.EntityID, seed int64) []telemetry.EntityID {
	out := append([]telemetry.EntityID(nil), ids...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func reversedEdges(edges [][2]telemetry.EntityID) [][2]telemetry.EntityID {
	out := make([][2]telemetry.EntityID, len(edges))
	for i, e := range edges {
		out[len(edges)-1-i] = e
	}
	return out
}

// TestBaselinesGoldenRankings pins one seeded scenario per family with every
// scheme's full ranking, so any ranking change in any method is visible in
// review diffs. Regenerate with UPDATE_GOLDEN=1.
func TestBaselinesGoldenRankings(t *testing.T) {
	var b strings.Builder
	for _, fam := range metamorph.Families {
		c, err := metamorph.Generate(fam, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RankCase(c)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		fmt.Fprintf(&b, "family %s (seed=%d) symptom=%s truth=%s\n", fam, c.Seed, c.Symptom.Entity, c.Truth)
		for _, s := range Schemes {
			ids := make([]string, len(rs[s]))
			for i, id := range rs[s] {
				ids[i] = string(id)
			}
			fmt.Fprintf(&b, "  %-10s %s\n", s, strings.Join(ids, " > "))
		}
	}
	checkGolden(t, "baseline_rankings.golden", b.String())
}

// TestParseBaselinesLegacy checks the pre-comparative Murphy-only baseline
// schema still parses, upgraded into the Murphy method.
func TestParseBaselinesLegacy(t *testing.T) {
	legacy := []byte(`{"seed":7,"cases_per_family":3,"families":{"cascade":{"cases":3,"precision":1,"top1":1,"top3":1,"top5":1}}}`)
	r, err := ParseBaselines(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != 7 || r.CasesPerFamily != 3 {
		t.Errorf("legacy header lost: %+v", r)
	}
	if got := r.Methods[SchemeMurphy]["cascade"]; got.Precision != 1 || got.Cases != 3 {
		t.Errorf("legacy families not upgraded to Murphy method: %+v", got)
	}
	// Round-trip: the upgraded result re-marshals in the new schema.
	data, err := r.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ParseBaselines(data)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Methods[SchemeMurphy]["cascade"] != r.Methods[SchemeMurphy]["cascade"] {
		t.Errorf("round-trip lost data: %+v vs %+v", r2, r)
	}
}
