package core

import (
	"runtime"
	"testing"

	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

func TestChainBounds(t *testing.T) {
	cases := []struct{ n, k int }{
		{10, 1}, {10, 2}, {10, 3}, {10, 4}, {7, 7}, {300, 4}, {5, 2},
	}
	for _, tc := range cases {
		prev := 0
		total := 0
		for c := 0; c < tc.k; c++ {
			lo, hi := chainBounds(tc.n, tc.k, c)
			if lo != prev {
				t.Fatalf("n=%d k=%d chain %d: lo=%d, want %d (contiguous)", tc.n, tc.k, c, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d k=%d chain %d: hi=%d < lo=%d", tc.n, tc.k, c, hi, lo)
			}
			if span := hi - lo; span != tc.n/tc.k && span != tc.n/tc.k+1 {
				t.Fatalf("n=%d k=%d chain %d: span %d not balanced", tc.n, tc.k, c, span)
			}
			total += hi - lo
			prev = hi
		}
		if total != tc.n {
			t.Fatalf("n=%d k=%d: chains cover %d draws", tc.n, tc.k, total)
		}
	}
}

func TestChainSeedIndependence(t *testing.T) {
	// Distinct chains of the same base must get distinct seeds, and the seed
	// must be a pure function of (base, chain).
	seen := map[int64]bool{}
	for c := 0; c < 64; c++ {
		s := chainSeed(12345, c)
		if seen[s] {
			t.Fatalf("chain %d: duplicate seed %d", c, s)
		}
		seen[s] = true
		if s != chainSeed(12345, c) {
			t.Fatalf("chain %d: seed not deterministic", c)
		}
	}
	if chainSeed(1, 0) == chainSeed(2, 0) {
		t.Fatal("different bases produced the same chain-0 seed")
	}
}

func TestChainCountClamp(t *testing.T) {
	m := &Model{cfg: Config{Sampler: SamplerConfig{Chains: 8}}}
	if got := m.chainCount(3); got != 3 {
		t.Errorf("chainCount(3) with Chains=8 = %d, want 3", got)
	}
	m.cfg.Sampler.Chains = 0
	if got := m.chainCount(100); got != 1 {
		t.Errorf("chainCount with Chains=0 = %d, want 1", got)
	}
}

// diagnoseChains trains on the shared chain DB with the given chain count and
// early-stop setting and returns the diagnosis of the standard symptom.
func diagnoseChains(t *testing.T, chains int, earlyStop bool) *Diagnosis {
	t.Helper()
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	cfg.Sampler.Chains = chains
	cfg.Sampler.EarlyStop = earlyStop
	m, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	return diag
}

// TestChainsSingleMatchesLegacy pins the compatibility contract: Chains=1 must
// reproduce the single-stream sampler's bits exactly (the golden rankings
// depend on them).
func TestChainsSingleMatchesLegacy(t *testing.T) {
	for _, es := range []bool{false, true} {
		legacy := diagnoseChains(t, 0, es)
		one := diagnoseChains(t, 1, es)
		sameDiagnosis(t, "chains=1 vs legacy", legacy, one)
	}
}

// TestChainsBitIdenticalAcrossProcs fixes the chain count and varies
// GOMAXPROCS: the merged verdicts must be bit-identical whether the chains ran
// inline on one processor or concurrently on four.
func TestChainsBitIdenticalAcrossProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, es := range []bool{false, true} {
		runtime.GOMAXPROCS(1)
		inline := diagnoseChains(t, 4, es)
		runtime.GOMAXPROCS(4)
		pooled := diagnoseChains(t, 4, es)
		sameDiagnosis(t, "chains across GOMAXPROCS", inline, pooled)
	}
}

// TestChainsPreserveRankings allows chain counts to change p-value bits (they
// use different RNG streams) but requires the certified ranked entity order to
// survive: same causes, same order, at 1, 2 and 4 chains, for both samplers.
func TestChainsPreserveRankings(t *testing.T) {
	for _, es := range []bool{false, true} {
		base := diagnoseChains(t, 1, es)
		if len(base.Causes) == 0 {
			t.Fatalf("earlyStop=%v: baseline found no causes", es)
		}
		for _, k := range []int{2, 4} {
			diag := diagnoseChains(t, k, es)
			if len(diag.Causes) != len(base.Causes) {
				t.Fatalf("earlyStop=%v chains=%d: %d causes vs %d", es, k, len(diag.Causes), len(base.Causes))
			}
			for i := range base.Causes {
				if diag.Causes[i].Entity != base.Causes[i].Entity {
					t.Fatalf("earlyStop=%v chains=%d: rank %d is %s, want %s",
						es, k, i, diag.Causes[i].Entity, base.Causes[i].Entity)
				}
			}
		}
	}
}

// TestChainsCounter verifies multi-chain sampling reports its chain spawns.
func TestChainsCounter(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	cfg.Sampler.Chains = 4
	m, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	rec.Enable()
	m.SetRecorder(rec)
	if _, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}); err != nil {
		t.Fatal(err)
	}
	chains := rec.Counter(obs.CtrGibbsChains)
	if chains == 0 || chains%4 != 0 {
		t.Errorf("CtrGibbsChains = %d, want a positive multiple of 4", chains)
	}
}

// TestEarlyStopDeterministicAndSound checks the early-stop path on the chain
// fixture: repeated runs are bit-identical (its RNG streams are seeded
// deterministically), the true cause chain stays certified with the same
// top-1, and SamplesUsed reflects actual truncation.
func TestEarlyStopDeterministicAndSound(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	cfg.Samples = 2000
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}

	plain, err := Train(db, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}

	fastCfg := cfg
	fastCfg.Sampler.EarlyStop = true
	fastCfg.Sampler.EarlyStopConfidence = 0.999
	m, err := Train(db, g, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.DiagnoseParallel(sym, 4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	sameDiagnosis(t, "early-stop determinism (parallel vs sequential)", first, again)

	if len(want.Causes) == 0 || len(first.Causes) == 0 {
		t.Fatal("both paths should certify causes on the chain incident")
	}
	if want.Causes[0].Entity != first.Causes[0].Entity {
		t.Fatalf("top-1 differs: %q vs %q", want.Causes[0].Entity, first.Causes[0].Entity)
	}
	budget := 2 * fastCfg.Samples
	truncated := false
	for _, c := range first.Causes {
		if c.SamplesUsed <= 0 || c.SamplesUsed > budget {
			t.Errorf("cause %q: SamplesUsed %d outside (0, %d]", c.Entity, c.SamplesUsed, budget)
		}
		if c.SamplesUsed < budget {
			truncated = true
		}
	}
	if !truncated {
		t.Error("early stop never truncated the budget on a clear-cut incident")
	}
	for _, c := range want.Causes {
		if c.SamplesUsed != budget {
			t.Errorf("full path: cause %q used %d samples, want %d", c.Entity, c.SamplesUsed, budget)
		}
	}
}
