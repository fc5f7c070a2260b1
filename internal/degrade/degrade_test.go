package degrade

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"murphy/internal/telemetry"
)

func sampleDB(t *testing.T) *telemetry.DB {
	t.Helper()
	db := telemetry.NewDB(60)
	for _, id := range []telemetry.EntityID{"a", "b", "c", "d"} {
		if err := db.AddEntity(&telemetry.Entity{ID: id, Type: telemetry.TypeVM, Name: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]telemetry.EntityID{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if err := db.Associate(p[0], p[1], telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	for tt := 0; tt < 20; tt++ {
		for _, id := range []telemetry.EntityID{"a", "b", "c", "d"} {
			if err := db.Observe(id, telemetry.MetricCPU, tt, float64(tt)); err != nil {
				t.Fatal(err)
			}
			if err := db.Observe(id, telemetry.MetricMem, tt, float64(tt)*2); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestMissingEdge(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(1))
	c, pair, err := MissingEdge(db, Protected{"a": true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(c.OutNeighbors(pair[0]), pair[1]) || slices.Contains(c.OutNeighbors(pair[1]), pair[0]) {
		t.Fatal("edge should be gone in both directions")
	}
	if !slices.Contains(db.OutNeighbors(pair[0]), pair[1]) {
		t.Fatal("original must be untouched")
	}
	if pair[0] == "a" || pair[1] == "a" {
		t.Fatal("protected entity's edges must not be chosen")
	}
	// All protected: nothing removable.
	if _, _, err := MissingEdge(db, Protected{"a": true, "b": true, "c": true, "d": true}, rng); err == nil {
		t.Fatal("no removable edges should error")
	}
}

func TestMissingEntity(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(2))
	prot := Protected{"a": true, "d": true}
	c, victim, err := MissingEntity(db, prot, rng)
	if err != nil {
		t.Fatal(err)
	}
	if prot[victim] {
		t.Fatal("protected entity removed")
	}
	if c.HasEntity(victim) {
		t.Fatal("victim should be gone")
	}
	if !db.HasEntity(victim) {
		t.Fatal("original must be untouched")
	}
	all := Protected{"a": true, "b": true, "c": true, "d": true}
	if _, _, err := MissingEntity(db, all, rng); err == nil {
		t.Fatal("no removable entities should error")
	}
}

func TestMissingMetric(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(3))
	c, metric, err := MissingMetric(db, "b", rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.Series("b", metric) != nil {
		t.Fatal("metric should be gone")
	}
	if db.Series("b", metric) == nil {
		t.Fatal("original must be untouched")
	}
	if len(c.MetricNames("b")) != 1 {
		t.Fatal("exactly one metric should be removed")
	}
	empty := telemetry.NewDB(60)
	if err := empty.AddEntity(&telemetry.Entity{ID: "x", Type: telemetry.TypeVM, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MissingMetric(empty, "x", rng); err == nil {
		t.Fatal("no metrics should error")
	}
}

func TestMissingValues(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(4))
	c, n, err := MissingValues(db, 1.0, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("affected = %d, want all 4", n)
	}
	// History erased (marked missing), tail intact.
	if v := c.At("a", telemetry.MetricCPU, 5); v == v {
		t.Fatalf("history should be missing, got %v", v)
	}
	if c.At("a", telemetry.MetricCPU, 17) != 17 {
		t.Fatal("in-incident tail must survive")
	}
	if db.At("a", telemetry.MetricCPU, 5) != 5 {
		t.Fatal("original must be untouched")
	}
	if _, _, err := MissingValues(db, 0, 5, rng); err == nil {
		t.Fatal("zero fraction should error")
	}
	if _, _, err := MissingValues(db, 0.5, 99, rng); err == nil {
		t.Fatal("keepFrom past timeline should error")
	}
}

func TestMissingValuesFraction(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(5))
	c, n, err := MissingValues(db, 0.5, 10, rng)
	// A fractional draw either corrupts at least one entity or reports the
	// typed sentinel — it never hands back a pristine copy as corrupted.
	if errors.Is(err, ErrNoneSelected) {
		if c != nil || n != 0 {
			t.Fatalf("sentinel with db=%v n=%d", c, n)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || n > 4 {
		t.Fatalf("affected = %d out of range", n)
	}
}

func TestMissingValuesNoneSelectedSentinel(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(6))
	// A vanishingly small fraction never selects an entity: the caller must
	// get the typed sentinel, not a pristine clone passed off as corrupted.
	c, n, err := MissingValues(db, 1e-12, 10, rng)
	if !errors.Is(err, ErrNoneSelected) {
		t.Fatalf("err = %v, want ErrNoneSelected", err)
	}
	if c != nil || n != 0 {
		t.Fatalf("no-op corruption should return nothing, got db=%v n=%d", c, n)
	}
}

func TestMissingValuesZeroMetricEntities(t *testing.T) {
	// A database of metric-less entities has no history to erase anywhere:
	// even fraction 1.0 must report ErrNoneSelected, and such entities never
	// count as victims.
	db := telemetry.NewDB(60)
	for _, id := range []telemetry.EntityID{"bare1", "bare2"} {
		if err := db.AddEntity(&telemetry.Entity{ID: id, Type: telemetry.TypeVM, Name: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	// One entity with metrics so the timeline is non-empty.
	if err := db.AddEntity(&telemetry.Entity{ID: "rich", Type: telemetry.TypeVM, Name: "rich"}); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 20; tt++ {
		if err := db.Observe("rich", telemetry.MetricCPU, tt, float64(tt)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	c, n, err := MissingValues(db, 1.0, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("affected = %d, want just the entity that has metrics", n)
	}
	if v := c.At("rich", telemetry.MetricCPU, 3); v == v {
		t.Fatal("rich entity's history should be erased")
	}
}

func TestMissingValuesKeepFromBoundary(t *testing.T) {
	db := sampleDB(t) // 20 slices
	rng := rand.New(rand.NewSource(8))
	// keepFrom == db.Len()-1: everything except the very last slice erased.
	c, n, err := MissingValues(db, 1.0, db.Len()-1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("affected = %d, want all 4", n)
	}
	for _, id := range []telemetry.EntityID{"a", "b", "c", "d"} {
		if v := c.At(id, telemetry.MetricCPU, db.Len()-2); v == v {
			t.Fatalf("%s slice %d should be erased, got %v", id, db.Len()-2, v)
		}
		if v := c.At(id, telemetry.MetricCPU, db.Len()-1); v != float64(db.Len()-1) {
			t.Fatalf("%s last slice must survive, got %v", id, v)
		}
	}
	// keepFrom == db.Len() is outside the timeline and must error.
	if _, _, err := MissingValues(db, 1.0, db.Len(), rng); err == nil || errors.Is(err, ErrNoneSelected) {
		t.Fatalf("keepFrom at timeline length should be a validation error, got %v", err)
	}
}

func TestMissingValuesDeterministicSeed(t *testing.T) {
	run := func() (*telemetry.DB, int) {
		db := sampleDB(t)
		c, n, err := MissingValues(db, 0.5, 12, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		return c, n
	}
	c1, n1 := run()
	c2, n2 := run()
	if n1 != n2 {
		t.Fatalf("same seed, different victim counts: %d vs %d", n1, n2)
	}
	for _, id := range []telemetry.EntityID{"a", "b", "c", "d"} {
		for _, metric := range []string{telemetry.MetricCPU, telemetry.MetricMem} {
			for tt := 0; tt < 20; tt++ {
				v1, v2 := c1.At(id, metric, tt), c2.At(id, metric, tt)
				same := v1 == v2 || (v1 != v1 && v2 != v2) // NaN-aware
				if !same {
					t.Fatalf("same seed diverged at %s/%s[%d]: %v vs %v", id, metric, tt, v1, v2)
				}
			}
		}
	}
}

func TestMissingEdgeAllProtected(t *testing.T) {
	db := sampleDB(t)
	rng := rand.New(rand.NewSource(10))
	// Protecting every other endpoint leaves no removable pair even though
	// unprotected entities exist.
	if _, _, err := MissingEdge(db, Protected{"b": true, "d": true}, rng); err == nil {
		t.Fatal("no removable edges should error")
	}
}
