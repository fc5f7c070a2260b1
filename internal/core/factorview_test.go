package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// TestCompareFactors: CompareFactors refuses models that differ in layout,
// in which factors are trained, in a factor's feature order or in its
// novelty flag, and otherwise reports the worst relative parameter
// difference and where it lies, with a parameter NaN on one side only as
// +Inf.
func TestCompareFactors(t *testing.T) {
	db := chainDB(t, 320, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	want := fullTrainAt(t, db, g, cfg, 260)
	slot, ok := want.idx.slot("front", telemetry.MetricCPU)
	if !ok || want.factors[slot] == nil || len(want.factors[slot].features) < 2 {
		t.Fatalf("fixture: front/cpu needs a factor with two features")
	}
	key := want.idx.keys[slot]
	// with returns a copy of want whose front/cpu factor edit has changed.
	with := func(edit func(f *factor)) *Model {
		m := *want
		m.factors = slices.Clone(want.factors)
		f := *want.factors[slot]
		f.features = slices.Clone(f.features)
		edit(&f)
		m.factors[slot] = &f
		return &m
	}

	d, err := CompareFactors(want, fullTrainAt(t, db, g, cfg, 260))
	if err != nil || d.Worst != 0 || d.At != "" || d.Factors != want.NumFactors() {
		t.Fatalf("identical fits: %+v, %v; want Worst 0 over %d factors", d, err, want.NumFactors())
	}

	small, err := graph.Build(db, []telemetry.EntityID{"back"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	untrained := with(func(*factor) {})
	untrained.factors[slot] = nil
	for _, tc := range []struct {
		name string
		got  *Model
		err  string
	}{
		{"series layout", fullTrainAt(t, db, small, cfg, 260), "different series"},
		{"one-sided factor", untrained, "one side only"},
		{"feature order", with(func(f *factor) { f.features[0], f.features[1] = f.features[1], f.features[0] }), "selected features"},
		{"novel", with(func(f *factor) { f.novel = !f.novel }), "novel"},
	} {
		if _, err := CompareFactors(want, tc.got); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.err)
		}
	}

	hstd := want.factors[slot].hstd
	for _, tc := range []struct {
		name  string
		edit  func(f *factor)
		worst float64
		at    string
	}{
		{"hstd nudged", func(f *factor) { f.hstd = hstd + 1e-3 }, 1e-3 / math.Max(1, math.Abs(hstd)), key + " hstd"},
		{"NaN on one side", func(f *factor) { f.med = math.NaN() }, math.Inf(1), key + " median"},
	} {
		d, err := CompareFactors(want, with(tc.edit))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d.At != tc.at || d.Worst != tc.worst && math.Abs(d.Worst-tc.worst) > 1e-12 {
			t.Errorf("%s: Worst %g at %q, want %g at %q", tc.name, d.Worst, d.At, tc.worst, tc.at)
		}
	}
}
