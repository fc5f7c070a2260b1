package explain

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/metamorph"
	"murphy/internal/telemetry"
)

// TestExplainCascadeGolden pins the full explanation chain produced on a
// fuzzed cascade scenario: the chain from the injected root cause to the
// client-latency symptom, in arrow form. Any change to labeling thresholds,
// the state machine, or chain tracing shows up as a golden diff. Regenerate
// with UPDATE_GOLDEN=1.
func TestExplainCascadeGolden(t *testing.T) {
	// Case 2 of the fixed-seed cascade family: a deep chain whose every hop
	// carries a non-Okay label, so the full path from the faulted container to
	// the client renders.
	const goldenPath = "testdata/cascade_chain.golden"
	c, err := metamorph.Generate(metamorph.FamilyCascade, 2, 0x6d757270)
	if err != nil {
		t.Fatal(err)
	}
	cfg := metamorph.BaseConfig()
	g, err := graph.Build(c.DB, []telemetry.EntityID{c.Symptom.Entity}, -1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainOpt(context.Background(), c.DB, g, cfg, core.TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	lb := NewLabeler(model, c.DB, DefaultThresholds())
	ch, ok := Explain(lb, g, c.Truth, c.Symptom.Entity)
	if !ok {
		t.Fatalf("no explanation chain from fuzzed truth %s to symptom %s", c.Truth, c.Symptom.Entity)
	}
	got := ch.Render(c.DB) + "\n"

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
		t.Fatalf("explanation chain drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
