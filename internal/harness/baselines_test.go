package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"murphy/internal/metamorph"
	"murphy/internal/telemetry"
)

// baselineEnv builds the shared case environment for one family's index-0
// case of the fixed test seed.
func baselineEnv(t *testing.T, fam string) *CaseEnv {
	t.Helper()
	c, err := metamorph.Generate(fam, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewCaseEnv(c)
	if err != nil {
		t.Fatalf("%s: %v", fam, err)
	}
	return env
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

// TestBaselineDeterminism checks every diagnoser's ranking is byte-identical
// across repeated runs, across a freshly regenerated identical case (fresh
// training included), and across candidate-order permutation. Each baseline
// dedupes its candidates and breaks score ties by entity ID, so the input
// order the harness happens to enumerate must never leak into the ranking.
func TestBaselineDeterminism(t *testing.T) {
	for _, fam := range metamorph.Families {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			env := baselineEnv(t, fam)
			env2 := baselineEnv(t, fam) // identical case, fresh training
			for _, d := range Diagnosers() {
				ref, err := d.Diagnose(env)
				if err != nil {
					t.Fatalf("%s: %v", d.Name(), err)
				}
				again, err := d.Diagnose(env)
				if err != nil {
					t.Fatalf("%s rerun: %v", d.Name(), err)
				}
				if !sameRanking(ref, again) {
					t.Errorf("%s: ranking differs across runs on the same env:\n%v\n%v", d.Name(), ref, again)
				}
				fresh, err := d.Diagnose(env2)
				if err != nil {
					t.Fatalf("%s fresh env: %v", d.Name(), err)
				}
				if !sameRanking(ref, fresh) {
					t.Errorf("%s: ranking differs across identically generated envs:\n%v\n%v", d.Name(), ref, fresh)
				}
				// Candidate-order permutations: reversed and seed-shuffled,
				// with the symptom entity duplicated to exercise dedup.
				for name, perm := range map[string][]telemetry.EntityID{
					"reversed": reversedIDs(env.Candidates),
					"shuffled": shuffledIDs(env.Candidates, 42),
					"duped":    append(append([]telemetry.EntityID(nil), env.Candidates...), env.Candidates...),
				} {
					penv := *env
					penv.Candidates = perm
					got, err := d.Diagnose(&penv)
					if err != nil {
						t.Fatalf("%s %s candidates: %v", d.Name(), name, err)
					}
					if !sameRanking(ref, got) {
						t.Errorf("%s: ranking depends on %s candidate order:\n%v\n%v", d.Name(), name, ref, got)
					}
				}
			}
			// Sage additionally must not care about the call DAG's edge-list
			// order.
			if len(env.Case.CallDAG) > 0 {
				ref, _ := (sageDiagnoser{}).Diagnose(env)
				penv := *env
				pc := *env.Case
				pc.CallDAG = reversedEdges(env.Case.CallDAG)
				penv.Case = &pc
				got, _ := (sageDiagnoser{}).Diagnose(&penv)
				if !sameRanking(ref, got) {
					t.Errorf("Sage: ranking depends on call-DAG edge order:\n%v\n%v", ref, got)
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
// method's full ranking, so any ranking change in any method is visible in
// review diffs. Regenerate with UPDATE_GOLDEN=1.
func TestBaselinesGoldenRankings(t *testing.T) {
	const goldenPath = "testdata/baseline_rankings.golden"
	var b strings.Builder
	for _, fam := range metamorph.Families {
		env := baselineEnv(t, fam)
		fmt.Fprintf(&b, "family %s (seed=%d) symptom=%s truth=%s\n", fam, env.Case.Seed, env.Case.Symptom.Entity, env.Case.Truth)
		for _, d := range Diagnosers() {
			ranked, err := d.Diagnose(env)
			if err != nil {
				t.Fatalf("%s on %s: %v", d.Name(), fam, err)
			}
			ids := make([]string, len(ranked))
			for i, id := range ranked {
				ids[i] = string(id)
			}
			fmt.Fprintf(&b, "  %-10s %s\n", d.Name(), strings.Join(ids, " > "))
		}
	}
	got := b.String()

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("per-method rankings drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
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
