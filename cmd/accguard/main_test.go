package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"murphy/internal/harness"
)

// noEnv is a getenv that sees an empty environment.
func noEnv(string) string { return "" }

// fakeResult builds a small comparative result with the given Murphy and
// NetMedic precisions (all other metrics pinned at the precision value).
func fakeResult(murphyPrec, netmedicPrec float64) *harness.BaselinesResult {
	acc := func(p float64) harness.FamilyAccuracy {
		return harness.FamilyAccuracy{Cases: 4, Precision: p, Top1: p, Top3: p, Top5: p}
	}
	return &harness.BaselinesResult{
		Seed:           1,
		CasesPerFamily: 4,
		Methods: map[string]map[string]harness.FamilyAccuracy{
			harness.SchemeMurphy:   {"cascade": acc(murphyPrec), "confounder": acc(murphyPrec)},
			harness.SchemeNetMedic: {"cascade": acc(netmedicPrec), "confounder": acc(netmedicPrec)},
		},
	}
}

// writeJSON writes a result to dir/name and returns the path.
func writeJSON(t *testing.T, dir, name string, r *harness.BaselinesResult) string {
	t.Helper()
	data, err := r.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// guard runs accguard with a checked-in baseline and a precomputed current
// run (-current skips the expensive suite rerun) and returns the exit code
// plus combined output.
func guard(t *testing.T, getenv func(string) string, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, getenv, &out, &out)
	return code, out.String()
}

// TestExitZeroWhenIdentical: a current run identical to the baseline passes.
func TestExitZeroWhenIdentical(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", fakeResult(0.9, 0.5))
	cur := writeJSON(t, dir, "cur.json", fakeResult(0.9, 0.5))
	code, out := guard(t, noEnv, "-baseline", base, "-current", cur)
	if code != 0 {
		t.Fatalf("exit %d on identical run, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "within tolerance") {
		t.Errorf("missing pass banner:\n%s", out)
	}
}

// TestExitOneOnMurphyRegression: an artificially lowered Murphy row beyond
// tolerance must fail the run.
func TestExitOneOnMurphyRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", fakeResult(0.9, 0.5))
	cur := writeJSON(t, dir, "cur.json", fakeResult(0.7, 0.5))
	code, out := guard(t, noEnv, "-baseline", base, "-current", cur)
	if code != 1 {
		t.Fatalf("exit %d on Murphy regression, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESS") {
		t.Errorf("missing REGRESS marker:\n%s", out)
	}
}

// TestExitZeroOnBaselineDrift: baseline methods may move arbitrarily in
// either direction — reported as drift, never gated.
func TestExitZeroOnBaselineDrift(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", fakeResult(0.9, 0.5))
	for _, nm := range []float64{0.1, 0.95} {
		cur := writeJSON(t, dir, "cur.json", fakeResult(0.9, nm))
		code, out := guard(t, noEnv, "-baseline", base, "-current", cur)
		if code != 0 {
			t.Fatalf("exit %d on NetMedic-only drift to %.2f, want 0\n%s", code, nm, out)
		}
		if !strings.Contains(out, "drift") {
			t.Errorf("NetMedic drift to %.2f not reported:\n%s", nm, out)
		}
	}
}

// TestSmallDropsWithinTolerance: Murphy may move within tolerance.
func TestSmallDropsWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", fakeResult(0.9, 0.5))
	cur := writeJSON(t, dir, "cur.json", fakeResult(0.87, 0.5))
	code, out := guard(t, noEnv, "-baseline", base, "-current", cur, "-tolerance", "0.05")
	if code != 0 {
		t.Fatalf("exit %d on within-tolerance drop, want 0\n%s", code, out)
	}
}

// TestUpdateRoundTripsSchema: -update (and the UPDATE_ACC_BASELINE=1 env
// form) rewrites the baseline in the per-method schema, and the written file
// parses back identical.
func TestUpdateRoundTripsSchema(t *testing.T) {
	dir := t.TempDir()
	want := fakeResult(0.9, 0.5)
	cur := writeJSON(t, dir, "cur.json", want)
	for name, env := range map[string]struct {
		getenv func(string) string
		args   []string
	}{
		"flag": {noEnv, []string{"-update"}},
		"env": {func(k string) string {
			if k == "UPDATE_ACC_BASELINE" {
				return "1"
			}
			return ""
		}, nil},
	} {
		base := filepath.Join(dir, name+"_base.json")
		args := append([]string{"-baseline", base, "-current", cur}, env.args...)
		code, out := guard(t, env.getenv, args...)
		if code != 0 {
			t.Fatalf("%s: exit %d on -update, want 0\n%s", name, code, out)
		}
		data, err := os.ReadFile(base)
		if err != nil {
			t.Fatalf("%s: baseline not written: %v", name, err)
		}
		got, err := harness.ParseBaselines(data)
		if err != nil {
			t.Fatalf("%s: written baseline does not parse: %v", name, err)
		}
		for method, fams := range want.Methods {
			for fam, acc := range fams {
				if got.Methods[method][fam] != acc {
					t.Errorf("%s: %s/%s round-trip mismatch: %+v vs %+v", name, method, fam, got.Methods[method][fam], acc)
				}
			}
		}
	}
}
