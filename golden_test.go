// Golden end-to-end ranking tests: seed-fixed diagnoses whose exact ranked
// cause lists are pinned, proving (a) the pipeline is deterministic, (b)
// factor-store reuse is behavior-preserving bit for bit, both on the
// anchoring diagnosis and on a store hit, and (c) the early-stop fast path
// keeps the top-1 verdict. Any intended ranking change must update
// these lists consciously.
package murphy

import (
	"fmt"
	"testing"

	"murphy/internal/enterprise"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// goldenMicrosim is the ranked certified-cause list of the default hotel
// contention scenario at the config below.
var goldenMicrosim = []telemetry.EntityID{
	"hotel-reservation/svc/search",
	"hotel-reservation/client/client",
	"hotel-reservation/svc/frontend",
	"hotel-reservation/flow/client->frontend",
	"hotel-reservation/node/node-1",
	"hotel-reservation/ctr/search",
}

// goldenEnterprise is the ranked certified-cause list of enterprise
// incident 2 at the config below.
var goldenEnterprise = []telemetry.EntityID{
	"app-01/app-vnic-0",
	"app-01/flow-web0-app",
	"app-01/flow-web1-app",
	"app-01/flow-app0-db",
	"app-01/db-vnic-0",
	"app-01/app-vm-0",
	"app-01/web-vm-1",
	"app-01/web-vnic-0",
	"app-01/flow-client-web",
	"app-01/db-vm-0",
	"app-01/datastore",
}

func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Samples = 2000
	cfg.TrainWindow = 280
	return cfg
}

// diagnoseRanked builds a System with the given extra options and returns
// the report of one diagnosis.
func diagnoseRanked(t *testing.T, db *telemetry.DB, sym telemetry.Symptom, extra ...Option) *Report {
	t.Helper()
	opts := append([]Option{WithConfig(goldenConfig()), WithSeeds(sym.Entity)}, extra...)
	sys, err := New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertStoreReuseIdentical diagnoses twice at the same slice on one System
// with incremental training — the anchoring pass, then a pass served from the
// store — and requires both reports to be bit-identical to the baseline.
func assertStoreReuseIdentical(t *testing.T, label string, db *telemetry.DB, sym telemetry.Symptom, baseline *Report, extra ...Option) {
	t.Helper()
	opts := append([]Option{WithConfig(goldenConfig()), WithSeeds(sym.Entity), WithIncrementalTraining(IncrementalTraining{})}, extra...)
	sys, err := New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"anchor", "hit"} {
		rep, err := sys.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalCauses(t, label+" "+pass, baseline, rep)
	}
	if st, _ := sys.FactorStoreStats(); st.Hits == 0 || st.Hits != st.Refits {
		t.Fatalf("%s: the second diagnosis should be served from the store: %+v", label, st)
	}
}

// rankedEntities lists the certified (non-degraded) causes in rank order.
func rankedEntities(rep *Report) []telemetry.EntityID {
	var out []telemetry.EntityID
	for _, c := range rep.Causes {
		if c.Degraded {
			continue
		}
		out = append(out, c.Entity)
	}
	return out
}

func assertGolden(t *testing.T, got, want []telemetry.EntityID) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("golden list not recorded; actual ranking:\n%s", formatRanking(got))
	}
	if len(got) != len(want) {
		t.Fatalf("ranked %d causes, want %d; actual ranking:\n%s", len(got), len(want), formatRanking(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d = %q, want %q; actual ranking:\n%s", i+1, got[i], want[i], formatRanking(got))
		}
	}
}

func formatRanking(ids []telemetry.EntityID) string {
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("\t%q,\n", id)
	}
	return s
}

// assertIdenticalCauses requires bit-identical certified causes: same
// entities, ranks, p-values, effects, and anomaly scores.
func assertIdenticalCauses(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if len(a.Causes) != len(b.Causes) {
		t.Fatalf("%s: %d causes vs %d", label, len(a.Causes), len(b.Causes))
	}
	for i := range a.Causes {
		x, y := a.Causes[i], b.Causes[i]
		if x.Entity != y.Entity || x.PValue != y.PValue || x.Effect != y.Effect || x.Score != y.Score || x.Degraded != y.Degraded {
			t.Fatalf("%s: cause %d differs: %q p=%v eff=%v vs %q p=%v eff=%v",
				label, i+1, x.Entity, x.PValue, x.Effect, y.Entity, y.PValue, y.Effect)
		}
	}
}

func assertSameTop1(t *testing.T, label string, a, b *Report) {
	t.Helper()
	top := func(r *Report) telemetry.EntityID {
		ids := rankedEntities(r)
		if len(ids) == 0 {
			return ""
		}
		return ids[0]
	}
	if ta, tb := top(a), top(b); ta != tb {
		t.Fatalf("%s: top-1 %q vs %q", label, ta, tb)
	}
}

func TestGoldenMicrosimRanking(t *testing.T) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := sc.Result.DB
	baseline := diagnoseRanked(t, db, sc.Symptom)
	assertGolden(t, rankedEntities(baseline), goldenMicrosim)
	if top := rankedEntities(baseline); top[0] != "hotel-reservation/svc/search" {
		t.Errorf("top-1 = %q, want the contended search service", top[0])
	}

	// Store reuse must be invisible in the output, bit for bit —
	// sequentially and on a 4-worker pool.
	assertStoreReuseIdentical(t, "store", db, sc.Symptom, baseline)
	assertStoreReuseIdentical(t, "store+parallel", db, sc.Symptom, baseline, WithWorkers(4))

	// The early-stop fast path may truncate p-values but must keep the
	// top-ranked cause (and, on this clear-cut scenario, the accept set).
	fast := diagnoseRanked(t, db, sc.Symptom, WithSampler(SamplerConfig{EarlyStop: true}), WithWorkers(4))
	assertSameTop1(t, "early stop vs baseline", baseline, fast)
	assertGolden(t, rankedEntities(fast), goldenMicrosim)
}

func TestGoldenEnterpriseRanking(t *testing.T) {
	gen := enterprise.DefaultGenOptions()
	gen.Apps = 7 // the incident library's minimum
	env, inc, err := enterprise.RunIncident(gen, enterprise.ByIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	db := env.DB
	baseline := diagnoseRanked(t, db, inc.Symptom)
	assertGolden(t, rankedEntities(baseline), goldenEnterprise)

	assertStoreReuseIdentical(t, "store", db, inc.Symptom, baseline)
	assertStoreReuseIdentical(t, "store+parallel", db, inc.Symptom, baseline, WithWorkers(4))

	fast := diagnoseRanked(t, db, inc.Symptom, WithSampler(SamplerConfig{EarlyStop: true}), WithWorkers(4))
	assertSameTop1(t, "early stop vs baseline", baseline, fast)
}
