package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// incViewTol is the rounding bound the slid-statistics path is held to
// against the full recomputation: the slid sums accumulate in a different
// order, so factors served from statistics match within rounding, not bit
// for bit (anchored/refit factors ARE bit-identical and tested as such).
const incViewTol = 1e-6

func floatClose(a, b, tol float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	m := math.Abs(a)
	if mb := math.Abs(b); mb > m {
		m = mb
	}
	return math.Abs(a-b) <= tol*(1+m)
}

func sliceClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !floatClose(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// compareFactorViews requires every factor of the two models to agree within
// tol (tol = 0 demands bitwise equality).
func compareFactorViews(t *testing.T, label string, want, got *Model, db *telemetry.DB, g *graph.Graph, tol float64) {
	t.Helper()
	for _, id := range g.IDs() {
		for _, name := range db.MetricNames(id) {
			w, ok1 := want.FactorView(id, name)
			v, ok2 := got.FactorView(id, name)
			if ok1 != ok2 {
				t.Fatalf("%s: %s/%s: factor presence %v vs %v", label, id, name, ok1, ok2)
			}
			if !ok1 {
				continue
			}
			if len(w.Features) != len(v.Features) {
				t.Fatalf("%s: %s/%s: features %v vs %v", label, id, name, w.Features, v.Features)
			}
			for i := range w.Features {
				if w.Features[i] != v.Features[i] {
					t.Fatalf("%s: %s/%s: feature %d: %q vs %q", label, id, name, i, w.Features[i], v.Features[i])
				}
			}
			if !sliceClose(w.Coef, v.Coef, tol) || !sliceClose(w.FeatMean, v.FeatMean, tol) || !sliceClose(w.FeatStd, v.FeatStd, tol) {
				t.Fatalf("%s: %s/%s: model terms differ beyond %v:\n full %+v\n  inc %+v", label, id, name, tol, w, v)
			}
			for _, pair := range [][2]float64{
				{w.Intercept, v.Intercept}, {w.ResidualStd, v.ResidualStd},
				{w.HMean, v.HMean}, {w.HStd, v.HStd},
				{w.Med, v.Med}, {w.MADScale, v.MADScale}, {w.RScore, v.RScore},
			} {
				if !floatClose(pair[0], pair[1], tol) {
					t.Fatalf("%s: %s/%s: scalar differs beyond %v:\n full %+v\n  inc %+v", label, id, name, tol, w, v)
				}
			}
			if w.Novel != v.Novel {
				t.Fatalf("%s: %s/%s: novel %v vs %v", label, id, name, w.Novel, v.Novel)
			}
		}
	}
}

func fullTrainAt(t *testing.T, db *telemetry.DB, g *graph.Graph, cfg Config, now int) *Model {
	t.Helper()
	m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func incTrainAt(t *testing.T, db *telemetry.DB, g *graph.Graph, cfg Config, now int, store *FactorStore) *Model {
	t.Helper()
	m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: now, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIncrementalAnchorBitIdentical: a caller's store's first (anchoring)
// train is a full refit of every factor, exactly what the fresh store of a
// storeless train performs, so the two must be bit-identical.
func TestIncrementalAnchorBitIdentical(t *testing.T) {
	db := chainDB(t, 320, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	inc := incTrainAt(t, db, g, cfg, 260, store)
	full := fullTrainAt(t, db, g, cfg, 260)
	compareFactorViews(t, "anchor", full, inc, db, g, 0)
	st := store.Stats()
	if st.Refits != 5 || st.Hits != 0 {
		t.Fatalf("anchor pass should refit everything: %+v", st)
	}
}

// TestIncrementalSlideMatchesFull slides the window point by point and
// compares the incremental factors against a from-scratch retrain along the
// way. The final diagnosis must certify the same causes in the same order.
func TestIncrementalSlideMatchesFull(t *testing.T) {
	db := chainDB(t, 320, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	var inc *Model
	for now := 250; now < 320; now++ {
		inc = incTrainAt(t, db, g, cfg, now, store)
		if (now-250)%10 == 0 || now == 319 {
			full := fullTrainAt(t, db, g, cfg, now)
			compareFactorViews(t, "slide", full, inc, db, g, incViewTol)
		}
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("sliding should serve factors from statistics: %+v", st)
	}
	if st.Slides == 0 {
		t.Fatalf("no slides recorded: %+v", st)
	}

	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	full := fullTrainAt(t, db, g, cfg, 319)
	wantD, err := full.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	gotD, err := inc.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantD.Causes) != len(gotD.Causes) {
		t.Fatalf("cause count: full %d vs incremental %d", len(wantD.Causes), len(gotD.Causes))
	}
	for i := range wantD.Causes {
		if wantD.Causes[i].Entity != gotD.Causes[i].Entity {
			t.Fatalf("cause %d: full %q vs incremental %q", i, wantD.Causes[i].Entity, gotD.Causes[i].Entity)
		}
	}
}

// TestIncrementalRepeatedWindowIsPureHit: re-training at the same slice must
// reuse the previously fitted factors without even a solve.
func TestIncrementalRepeatedWindowIsPureHit(t *testing.T) {
	db := chainDB(t, 320, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	m1 := incTrainAt(t, db, g, cfg, 300, store)
	m2 := incTrainAt(t, db, g, cfg, 300, store)
	st := store.Stats()
	if st.Hits != 5 || st.Refits != 5 {
		t.Fatalf("expected 5 anchor refits + 5 pure hits: %+v", st)
	}
	compareFactorViews(t, "repeat", m1, m2, db, g, 0)
}

// twoNodeDB builds a minimal a->b chain where b's CPU tracks a's with gain
// `gain(t)`; used by the drift and recenter tests.
func twoNodeDB(t *testing.T, total int, seed int64, level float64, xAt func(rng *rand.Rand, tt int) float64, yOf func(rng *rand.Rand, tt int, x float64) float64) (*telemetry.DB, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := telemetry.NewDB(total + 8)
	for _, e := range []*telemetry.Entity{
		{ID: "a", Type: telemetry.TypeVM, Name: "a", App: "app"},
		{ID: "b", Type: telemetry.TypeVM, Name: "b", App: "app"},
	} {
		if err := db.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Associate("a", "b", telemetry.Bidirectional); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < total; tt++ {
		x := level + xAt(rng, tt)
		y := yOf(rng, tt, x)
		if err := db.Observe("a", telemetry.MetricCPU, tt, x); err != nil {
			t.Fatal(err)
		}
		if err := db.Observe("b", telemetry.MetricCPU, tt, y); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.Build(db, []telemetry.EntityID{"b"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

// TestIncrementalDriftTrip flips the a->b relationship mid-stream: the stale
// model's one-step-ahead predictions degrade, the MASE drift score trips,
// and the store falls back to a full refit instead of serving a wrong model.
func TestIncrementalDriftTrip(t *testing.T) {
	db, g := twoNodeDB(t, 400, 7, 50,
		func(rng *rand.Rand, tt int) float64 { return 10*math.Sin(float64(tt)/15) + rng.NormFloat64() },
		func(rng *rand.Rand, tt int, x float64) float64 {
			if tt < 300 {
				return 2*x + 5 + rng.NormFloat64()*0.5
			}
			return -2*x + 210 + rng.NormFloat64()*0.5
		})
	cfg := testConfig()
	store := NewFactorStore()
	store.SetPolicy(2.0, 1<<30) // sensitive drift, no scheduled refresh
	var inc *Model
	for now := 249; now < 400; now++ {
		inc = incTrainAt(t, db, g, cfg, now, store)
	}
	st := store.Stats()
	if st.DriftTrips == 0 {
		t.Fatalf("relationship flip should trip the drift guard: %+v", st)
	}
	full := fullTrainAt(t, db, g, cfg, 399)
	compareFactorViews(t, "post-flip", full, inc, db, g, incViewTol)
}

// TestIncrementalRecenter runs a large-mean series with a drifting level:
// the shifted moments must recenter (exact closed-form corrections to the
// slid Gram/cross sums) and stay within rounding of the full retrain even
// when the window wanders far from its anchor.
func TestIncrementalRecenter(t *testing.T) {
	db, g := twoNodeDB(t, 420, 11, 1e6,
		func(rng *rand.Rand, tt int) float64 {
			return 0.8*float64(tt) + 3*math.Sin(float64(tt)/10) + rng.NormFloat64()
		},
		func(rng *rand.Rand, tt int, x float64) float64 {
			return 1e6 + 2*(x-1e6) + rng.NormFloat64()
		})
	cfg := testConfig()
	store := NewFactorStore()
	store.SetPolicy(1e9, 1<<30) // isolate the recenter machinery: no drift/refresh refits
	var inc *Model
	for now := 249; now < 420; now++ {
		inc = incTrainAt(t, db, g, cfg, now, store)
	}
	st := store.Stats()
	if st.Hits == 0 {
		t.Fatalf("recenter test should stay on the incremental path: %+v", st)
	}
	full := fullTrainAt(t, db, g, cfg, 419)
	compareFactorViews(t, "recenter", full, inc, db, g, incViewTol)
}

// TestIncrementalDegenerateSeries: a constant metric yields zero
// correlations and an intercept-only factor; the statistics path must agree
// with the full fit on that degenerate shape at every slide.
func TestIncrementalDegenerateSeries(t *testing.T) {
	db, g := twoNodeDB(t, 300, 13, 50,
		func(rng *rand.Rand, tt int) float64 { return 5*math.Sin(float64(tt)/9) + rng.NormFloat64() },
		func(rng *rand.Rand, tt int, x float64) float64 { return 42 }) // b is constant
	cfg := testConfig()
	store := NewFactorStore()
	var inc *Model
	for now := 249; now < 300; now++ {
		inc = incTrainAt(t, db, g, cfg, now, store)
	}
	full := fullTrainAt(t, db, g, cfg, 299)
	compareFactorViews(t, "degenerate", full, inc, db, g, incViewTol)
	if v, ok := inc.FactorView("b", telemetry.MetricCPU); !ok || len(v.Features) != 0 {
		t.Fatalf("constant target should select no features: %+v", v)
	}
}

// TestIncrementalDirtySeries: a series with missing observations inside the
// window is rebuilt (its placeholder fill is window-dependent), and every
// factor targeting it takes the bit-exact refit path on every slide.
func TestIncrementalDirtySeries(t *testing.T) {
	db := chainDB(t, 340, 5, 42)
	// Erase a stretch of front CPU inside the sliding range by rebuilding
	// the DB without those observations.
	rngDB := telemetry.NewDB(600)
	for _, id := range []telemetry.EntityID{"client", "flow", "front", "back", "decoy"} {
		e := db.Entity(id)
		if e == nil {
			t.Fatalf("missing entity %s", id)
		}
		if err := rngDB.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]telemetry.EntityID{
		{"client", "flow"}, {"flow", "front"}, {"front", "back"}, {"decoy", "back"},
	} {
		if err := rngDB.Associate(p[0], p[1], telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []telemetry.EntityID{"client", "flow", "front", "back", "decoy"} {
		for _, name := range db.MetricNames(id) {
			w := db.RawWindow(id, name, 0, db.Len())
			for tt, v := range w {
				if id == "front" && tt >= 290 && tt < 300 {
					continue // the missing stretch
				}
				if v == v {
					if err := rngDB.Observe(id, name, tt, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g := chainGraph(t, rngDB)
	cfg := testConfig()
	store := NewFactorStore()
	var inc *Model
	for now := 280; now < 340; now++ {
		inc = incTrainAt(t, rngDB, g, cfg, now, store)
		if (now-280)%15 == 0 || now == 339 {
			full := fullTrainAt(t, rngDB, g, cfg, now)
			compareFactorViews(t, "dirty", full, inc, rngDB, g, incViewTol)
			// The dirty-target factor must be bit-identical: it takes a
			// full refit while any NaN is in-window.
			if now < 300+cfg.TrainWindow && now >= 290 {
				w, _ := full.FactorView("front", telemetry.MetricCPU)
				v, _ := inc.FactorView("front", telemetry.MetricCPU)
				if !sliceClose(w.Coef, v.Coef, 0) || w.Intercept != v.Intercept || w.Med != v.Med || w.MADScale != v.MADScale {
					t.Fatalf("dirty-target factor not bit-identical at %d:\n full %+v\n  inc %+v", now, w, v)
				}
			}
		}
	}
}

// TestIncrementalMetricAppears: a metric that starts being reported
// mid-replay changes the graph's series set, so the store moves onto a new
// series layout. The new series is read over the current window and its
// factor fitted; the two entities whose candidate lists gained it refit;
// every other factor keeps its slid statistics. Factors match a storeless
// train before, at and after the change.
func TestIncrementalMetricAppears(t *testing.T) {
	db := chainDB(t, 320, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	slide := func(from, to int) {
		t.Helper()
		for now := from; now <= to; now++ {
			inc := incTrainAt(t, db, g, cfg, now, store)
			compareFactorViews(t, fmt.Sprintf("slide %d", now), fullTrainAt(t, db, g, cfg, now), inc, db, g, incViewTol)
		}
	}
	slide(250, 279)

	rng := rand.New(rand.NewSource(7))
	for tt := 0; tt < db.Len(); tt++ {
		v := 0.3 + 0.01*db.At("front", telemetry.MetricCPU, tt) + 0.02*rng.NormFloat64()
		if err := db.Observe("front", telemetry.MetricMem, tt, v); err != nil {
			t.Fatal(err)
		}
	}
	before := store.Stats()
	slide(280, 280)
	after := store.Stats()
	// front/mem_util is new; flow and back have front as an in-neighbour,
	// so their candidate lists gained it. client, front/cpu_util and decoy
	// slide as before.
	if refits, hits := after.Refits-before.Refits, after.Hits-before.Hits; refits != 3 || hits != 3 {
		t.Fatalf("pass after the new metric: %d refits, %d hits; want 3 and 3", refits, hits)
	}
	if after.Resets != before.Resets || after.Factors != 6 || after.Series != 6 {
		t.Fatalf("a new metric must not reset the store: %+v -> %+v", before, after)
	}
	slide(281, 299)
}

// TestFactorStoreSnapshotRoundTrip: snapshot -> restore into a fresh store
// -> the first train at the same window performs zero full retrains and
// returns bit-identical factors; subsequent slides keep matching the full
// retrain (the restored statistics are live, not just a cached model).
func TestFactorStoreSnapshotRoundTrip(t *testing.T) {
	db := chainDB(t, 340, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	var m1 *Model
	for now := 280; now <= 300; now++ {
		m1 = incTrainAt(t, db, g, cfg, now, store)
	}
	snap, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	warm := NewFactorStore()
	if err := warm.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	m2 := incTrainAt(t, db, g, cfg, 300, warm)
	st := warm.Stats()
	if st.Refits != 0 {
		t.Fatalf("warm restart must not retrain: %+v", st)
	}
	if st.Hits != 5 {
		t.Fatalf("warm restart should serve every factor: %+v", st)
	}
	compareFactorViews(t, "warm", m1, m2, db, g, 0)

	// The restored statistics must keep sliding correctly.
	var inc *Model
	for now := 301; now < 340; now++ {
		inc = incTrainAt(t, db, g, cfg, now, warm)
	}
	full := fullTrainAt(t, db, g, cfg, 339)
	compareFactorViews(t, "warm-slide", full, inc, db, g, incViewTol)
}

// TestFactorStoreSnapshotMismatchDiscarded: a snapshot taken under different
// hyperparameters (or against data the database no longer reproduces) is
// discarded at adoption — the warm restart degrades to a cold one, never to
// wrong factors.
func TestFactorStoreSnapshotMismatchDiscarded(t *testing.T) {
	db := chainDB(t, 340, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	incTrainAt(t, db, g, cfg, 300, store)
	snap, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Hyperparameter mismatch: everything refits, nothing breaks.
	other := cfg
	other.TopB = cfg.TopB + 1
	cold := NewFactorStore()
	if err := cold.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	inc := incTrainAt(t, db, g, other, 300, cold)
	if st := cold.Stats(); st.Refits != 5 || st.Hits != 0 {
		t.Fatalf("mismatched snapshot must be discarded: %+v", st)
	}
	full := fullTrainAt(t, db, g, other, 300)
	compareFactorViews(t, "discard", full, inc, db, g, 0)

	// Different data (another seed): window fingerprints cannot match.
	db2 := chainDB(t, 340, 5, 99)
	g2 := chainGraph(t, db2)
	cold2 := NewFactorStore()
	if err := cold2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	inc2 := incTrainAt(t, db2, g2, cfg, 300, cold2)
	if st := cold2.Stats(); st.Refits != 5 {
		t.Fatalf("foreign-data snapshot must be discarded: %+v", st)
	}
	compareFactorViews(t, "discard-data", fullTrainAt(t, db2, g2, cfg, 300), inc2, db2, g2, 0)
}

// TestIncrementalWorkersBitIdentical: the pooled factor phase must produce
// the same factors as the serial one.
func TestIncrementalWorkersBitIdentical(t *testing.T) {
	db := chainDB(t, 320, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	serial := NewFactorStore()
	pooled := NewFactorStore()
	var ms, mp *Model
	for now := 250; now < 280; now++ {
		var err error
		ms, err = TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: now, Store: serial})
		if err != nil {
			t.Fatal(err)
		}
		mp, err = TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: now, Store: pooled, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
	}
	compareFactorViews(t, "workers", ms, mp, db, g, 0)
	a, b := serial.Stats(), pooled.Stats()
	if a.Hits != b.Hits || a.Refits != b.Refits {
		t.Fatalf("pooled stats diverged: %+v vs %+v", a, b)
	}
}

// TestIncrementalFarJumpResets: sliding by more than half the window resets
// the store (re-anchoring beats sliding), and the result stays bit-exact.
func TestIncrementalFarJumpResets(t *testing.T) {
	db := chainDB(t, 340, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	incTrainAt(t, db, g, cfg, 220, store)
	m := incTrainAt(t, db, g, cfg, 339, store) // jump of 119 > 200/2
	st := store.Stats()
	if st.Resets == 0 {
		t.Fatalf("far jump should reset: %+v", st)
	}
	compareFactorViews(t, "jump", fullTrainAt(t, db, g, cfg, 339), m, db, g, 0)
}

// countdownCtx reports cancellation once Err has been polled `left` times:
// a deterministic way to abort a training pass partway through.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestIncrementalCancelledPassResets: a pass cancelled midway has already
// slid some series (or entries) but not the window bounds. The store must
// void its state, so the next pass re-anchors, bit-exact, instead of
// sliding the same series twice.
func TestIncrementalCancelledPassResets(t *testing.T) {
	db := chainDB(t, 340, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	// The chain graph has 5 entities of one metric each; the context is
	// polled once per entity, then once per factor.
	for _, polls := range []int64{2, 7} {
		store := NewFactorStore()
		incTrainAt(t, db, g, cfg, 260, store)
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(polls)
		if _, err := TrainOpt(ctx, db, g, cfg, TrainOpts{Now: 261, Store: store}); !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: err = %v, want context.Canceled", polls, err)
		}
		if st := store.Stats(); st.Resets != 1 || st.Factors != 0 {
			t.Fatalf("polls=%d: a failed pass should void the store: %+v", polls, st)
		}
		m := incTrainAt(t, db, g, cfg, 261, store)
		compareFactorViews(t, "after cancel", fullTrainAt(t, db, g, cfg, 261), m, db, g, 0)
	}
}

// tieWindow is the slide test's training window: every tieHubDB series is a
// sum of sinusoids at integer frequencies of this period, so each
// window-wide sum (means, variances, cross products) is the same at every
// slide, and two series built from disjoint frequencies are exactly
// uncorrelated. Correlations that tie in exact arithmetic then differ only
// by rounding, which re-randomizes as the window slides.
const tieWindow = 200

// tieHubDB builds a hub whose in-neighbours rank at the selection margin's
// edge cases. For hub/cpu: seven well-separated features (ranks 0–6); a tie
// run of four exact copies of one signal — two bit-identical duplicates and
// two offset near-duplicates whose |r| differ by rounding only — at ranks
// 7–10, straddling rank B = 10; and near-zero candidates (two orthogonal
// waves, two constants). hub/mem is orthogonal to every in-neighbour, so
// its whole candidate list is one near-zero run, and each neighbour's
// factor selects hub/mem with a correlation below the margin.
func tieHubDB(t *testing.T, total int, seed int64) (*telemetry.DB, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	next := 5 // frequency 4 is reserved for hub/mem
	// wave returns a fresh unit-variance signal on two unused frequencies.
	wave := func() func(int) float64 {
		k1, k2 := next, next+1
		next += 2
		p1, p2 := rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi
		return func(tt int) float64 {
			w := 2 * math.Pi * float64(tt) / tieWindow
			return math.Sin(float64(k1)*w+p1) + math.Sin(float64(k2)*w+p2)
		}
	}
	x, z, eps := wave(), wave(), wave()
	series := map[telemetry.EntityID]func(int) float64{
		"zA": func(tt int) float64 { return 30 + z(tt) },
		"zB": func(tt int) float64 { return 30 + z(tt) },
		"zC": func(tt int) float64 { return 30.3 + z(tt) },
		"zD": func(tt int) float64 { return 31.7 + z(tt) },
		"k1": func(int) float64 { return 42 },
		"k2": func(int) float64 { return 7 },
	}
	for i := 1; i <= 7; i++ {
		e, sigma := wave(), 0.15*float64(i)
		series[telemetry.EntityID(fmt.Sprintf("s%d", i))] = func(tt int) float64 { return 20 + x(tt) + sigma*e(tt) }
	}
	for _, id := range []telemetry.EntityID{"n1", "n2"} {
		n := wave()
		series[id] = func(tt int) float64 { return 10 + n(tt) }
	}

	db := telemetry.NewDB(total + 8)
	if err := db.AddEntity(&telemetry.Entity{ID: "hub", Type: telemetry.TypeVM, Name: "hub", App: "app"}); err != nil {
		t.Fatal(err)
	}
	ids := make([]telemetry.EntityID, 0, len(series))
	for id := range series {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := db.AddEntity(&telemetry.Entity{ID: id, Type: telemetry.TypeVM, Name: string(id), App: "app"}); err != nil {
			t.Fatal(err)
		}
		if err := db.Associate(id, "hub", telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	obs := func(id telemetry.EntityID, metric string, tt int, v float64) {
		t.Helper()
		if err := db.Observe(id, metric, tt, v); err != nil {
			t.Fatal(err)
		}
	}
	for tt := 0; tt < total; tt++ {
		obs("hub", telemetry.MetricCPU, tt, 100+x(tt)+0.5*z(tt)+0.3*eps(tt))
		obs("hub", telemetry.MetricMem, tt, 50+10*math.Cos(2*math.Pi*4*float64(tt)/tieWindow))
		for _, id := range ids {
			obs(id, telemetry.MetricCPU, tt, series[id](tt))
		}
	}
	g, err := graph.Build(db, []telemetry.EntityID{"hub"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

// TestIncrementalPartialRerankMatchesExact slides a store over tieHubDB and
// holds the certified partial re-rank to the full fit's exact ranking at
// every slide: the same features in the same order, factors within
// rounding. The tie runs make selections churn, so the slid path must
// adopt both reorders of the same features and swaps of a feature in place.
func TestIncrementalPartialRerankMatchesExact(t *testing.T) {
	const slides = 30
	total := tieWindow + slides + 1
	db, g := tieHubDB(t, total, 5)
	cfg := testConfig()
	cfg.TrainWindow = tieWindow
	store := NewFactorStore()
	store.SetPolicy(1e9, 1<<30) // isolate selection: no drift or refresh refits

	anchor := total - 1 - slides
	prev := incTrainAt(t, db, g, cfg, anchor, store)
	hub, _ := prev.FactorView("hub", telemetry.MetricCPU)
	if len(hub.Features) != cfg.TopB {
		t.Fatalf("hub/cpu selects %d features, want %d: %v", len(hub.Features), cfg.TopB, hub.Features)
	}
	for i, f := range hub.Features {
		if isTie := strings.HasPrefix(f, "z"); isTie != (i >= 7) {
			t.Fatalf("fixture: the tie run must fill ranks 7-9 of hub/cpu exactly: %v", hub.Features)
		}
	}

	sorted := func(fs []string) []string {
		c := slices.Clone(fs)
		slices.Sort(c)
		return c
	}
	var orderOnly, swaps int
	for now := anchor + 1; now < total; now++ {
		inc := incTrainAt(t, db, g, cfg, now, store)
		compareFactorViews(t, fmt.Sprintf("slide to %d", now), fullTrainAt(t, db, g, cfg, now), inc, db, g, incViewTol)
		for _, id := range g.IDs() {
			for _, name := range db.MetricNames(id) {
				was, _ := prev.FactorView(id, name)
				is, _ := inc.FactorView(id, name)
				switch {
				case slices.Equal(was.Features, is.Features):
				case slices.Equal(sorted(was.Features), sorted(is.Features)):
					orderOnly++
				default:
					swaps++
				}
			}
		}
		prev = inc
	}
	st := store.Stats()
	if st.Refits != uint64(len(prev.factors)) {
		t.Fatalf("only the anchor should refit: %+v", st)
	}
	if st.Reselects == 0 || orderOnly == 0 || swaps == 0 {
		t.Fatalf("selections should churn both ways: %d reselects, %d order-only, %d swaps", st.Reselects, orderOnly, swaps)
	}
	if st.ExactRanks == 0 || st.GramDots == 0 {
		t.Fatalf("tie runs should take exact ranks and swaps Gram dots: %+v", st)
	}
	t.Logf("%d slides: %d hits, %d reselects (%d order-only, %d swaps), %d exact ranks, %d Gram dots",
		slides, st.Hits, st.Reselects, orderOnly, swaps, st.ExactRanks, st.GramDots)
}
