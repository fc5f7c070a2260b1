package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"murphy/internal/stats"
)

// The harness tests run each experiment at reduced scale (same code path as
// the full runs) and assert the paper's qualitative shape. The §6 drivers
// also pin their printed results to goldens under testdata/, so a refactor
// that moves any number shows up as a reviewed diff.

// checkGolden compares got with testdata/name, or rewrites the file when
// UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestFig5Shape(t *testing.T) {
	opts := DefaultFig5Options()
	opts.Variants = 6
	opts.Samples = 200
	res, err := RunFig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	checkGolden(t, "fig5.golden", res.String())
	// Murphy finds the interference root cause; Sage structurally cannot.
	if res.Recall[SchemeMurphy] < 0.6 {
		t.Fatalf("Murphy top-5 recall = %v, want high", res.Recall[SchemeMurphy])
	}
	if res.TopK[SchemeSage][10] != 0 {
		t.Fatalf("Sage must score 0 (root cause outside its model), got %v", res.TopK[SchemeSage][10])
	}
	if res.Recall[SchemeMurphy] <= res.Recall[SchemeNetMedic] {
		t.Fatalf("Murphy (%v) should beat NetMedic (%v)", res.Recall[SchemeMurphy], res.Recall[SchemeNetMedic])
	}
	// Relaxed metrics are at least as high as strict ones.
	for _, s := range Schemes {
		if res.RelaxedRecall[s]+1e-9 < res.Recall[s] {
			t.Fatalf("%s: relaxed recall below strict", s)
		}
	}
	// Murphy should have perfect relaxed recall as in the paper.
	if res.RelaxedRecall[SchemeMurphy] < 0.9 {
		t.Fatalf("Murphy relaxed recall = %v, want ~1", res.RelaxedRecall[SchemeMurphy])
	}
	if !strings.Contains(res.String(), "Fig 5c") {
		t.Fatal("result should render")
	}
}

func TestFig6Shape(t *testing.T) {
	for _, topo := range []string{"hotel", "social"} {
		opts := DefaultFig6Options()
		opts.Topo = topo
		opts.Scenarios = 6
		opts.Samples = 200
		res, err := RunFig6(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Log("\n" + res.String())
		checkGolden(t, "fig6_"+topo+".golden", res.String())
		// DAG home turf: both Murphy and Sage should do well; Murphy at
		// least as well as the others on top-5.
		m := res.TopK[SchemeMurphy][5]
		if m < 0.5 {
			t.Fatalf("%s: Murphy top-5 = %v, want high", topo, m)
		}
		if m+1e-9 < res.TopK[SchemeNetMedic][5]-0.35 {
			t.Fatalf("%s: Murphy (%v) should not trail NetMedic (%v) badly", topo, m, res.TopK[SchemeNetMedic][5])
		}
		// Curves are monotone in K.
		for _, s := range Schemes {
			prev := -1.0
			for _, k := range opts.Ks {
				if res.TopK[s][k] < prev-1e-9 {
					t.Fatalf("%s: %s curve not monotone", topo, s)
				}
				prev = res.TopK[s][k]
			}
		}
	}
}

func TestFig6ErrorPaths(t *testing.T) {
	if _, err := RunFig6(Fig6Options{}); err == nil {
		t.Fatal("zero scenarios should error")
	}
	if _, err := RunFig5(Fig5Options{}); err == nil {
		t.Fatal("zero variants should error")
	}
	if _, err := RunTable2(Table2Options{}); err == nil {
		t.Fatal("zero scenarios should error")
	}
	if _, err := RunFig7(Fig7Options{}); err == nil {
		t.Fatal("zero scenarios should error")
	}
}

func TestTable1Shape(t *testing.T) {
	opts := DefaultTable1Options()
	opts.Gen.Steps = 240
	opts.Samples = 200
	res, err := RunTable1(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	checkGolden(t, "table1.golden", res.String())
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(res.Rows))
	}
	if res.SageApplicable {
		t.Fatal("Sage must be inapplicable on the cyclic enterprise input")
	}
	// The headline: Murphy produces far fewer FPs than both baselines at
	// comparable recall.
	if res.AvgFPs[SchemeMurphy] >= res.AvgFPs[SchemeNetMedic] {
		t.Fatalf("Murphy avg FPs %v should beat NetMedic %v", res.AvgFPs[SchemeMurphy], res.AvgFPs[SchemeNetMedic])
	}
	if res.AvgFPs[SchemeMurphy] >= res.AvgFPs[SchemeExplainIt] {
		t.Fatalf("Murphy avg FPs %v should beat ExplainIT %v", res.AvgFPs[SchemeMurphy], res.AvgFPs[SchemeExplainIt])
	}
	// Calibration incidents must be recalled by construction.
	for _, row := range res.Rows {
		if row.Index == 2 || row.Index == 7 {
			if row.Recall[SchemeMurphy] != 1 {
				t.Fatalf("incident %d: Murphy must recall its calibration case", row.Index)
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	opts := DefaultTable2Options()
	opts.Scenarios = 5
	opts.Samples = 1000
	res, err := RunTable2(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	checkGolden(t, "table2.golden", res.String())
	// The paper's claim: Murphy and Sage are fairly robust (6% / 10% loss);
	// assert a modest bounded drop rather than exact values.
	for _, s := range []string{SchemeMurphy, SchemeSage} {
		if res.Recall[s]["unchanged"] < 0.5 {
			t.Fatalf("%s unchanged recall = %v, want high", s, res.Recall[s]["unchanged"])
		}
		if res.Aggregate[s] < res.Recall[s]["unchanged"]-0.4 {
			t.Fatalf("%s aggregate %v dropped too far from unchanged %v", s, res.Aggregate[s], res.Recall[s]["unchanged"])
		}
	}
	if res.Aggregate[SchemeMurphy] < 0.5 {
		t.Fatalf("Murphy aggregate = %v, want robust", res.Aggregate[SchemeMurphy])
	}
}

func TestFig7Shape(t *testing.T) {
	opts := DefaultFig7Options()
	opts.Scenarios = 5
	opts.Samples = 200
	opts.NTrains = []int{128, 512}
	res, err := RunFig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	checkGolden(t, "fig7.golden", res.String())
	// Online training dominates offline — the paper's 90% vs 15% gap.
	if res.OnFreshData <= res.TrainedOffline {
		t.Fatalf("online (%v) must beat offline (%v)", res.OnFreshData, res.TrainedOffline)
	}
	if res.OnFreshData < 0.5 {
		t.Fatalf("online accuracy = %v, want high", res.OnFreshData)
	}
	if res.NoPriorIncidents < 0.4 {
		t.Fatalf("no-prior-incidents accuracy = %v, want decent", res.NoPriorIncidents)
	}
	// Longer training should not hurt much.
	if res.ByNTrain[512] < res.ByNTrain[128]-0.35 {
		t.Fatalf("ntrain=512 (%v) should not trail ntrain=128 (%v) badly", res.ByNTrain[512], res.ByNTrain[128])
	}
}

func TestFig8aShape(t *testing.T) {
	opts := DefaultFig8aOptions()
	opts.Gen.Apps = 4
	opts.Gen.Steps = 160
	opts.MaxEntities = 40
	res, err := RunFig8a(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	if res.Entities < 20 {
		t.Fatalf("entities scored = %d, want plenty", res.Entities)
	}
	// Every model is scored on the same entities, or the CDFs compare
	// different populations.
	for _, name := range Fig8aModels {
		if n := len(res.MASE[name]); n != res.Entities {
			t.Errorf("%s scored %d entities, want all %d", name, n, res.Entities)
		}
	}
	// Fig 8a fits its regressors directly, outside core's trainer, so pin
	// every model's per-entity MASE as exact bits.
	var b strings.Builder
	for _, name := range Fig8aModels {
		fmt.Fprintf(&b, "%s (%d entities)\n", name, len(res.MASE[name]))
		for i, m := range res.MASE[name] {
			fmt.Fprintf(&b, "  %2d %016x %.6f\n", i, math.Float64bits(m), m)
		}
	}
	checkGolden(t, "fig8a.golden", b.String())
	med := map[string]float64{}
	for name, ms := range res.MASE {
		med[name] = stats.Median(ms)
	}
	// The headline of Fig 8a: ridge dominates the alternatives.
	if med["linear regression"] >= med["GMM"] {
		t.Fatalf("ridge median %v should beat GMM %v", med["linear regression"], med["GMM"])
	}
	if med["linear regression"] >= med["neural network"] {
		t.Fatalf("ridge median %v should beat NN %v", med["linear regression"], med["neural network"])
	}
	if med["linear regression"] >= med["SVM"]*2 {
		t.Fatalf("ridge median %v should be competitive with SVM %v", med["linear regression"], med["SVM"])
	}
}

func TestFig8bShape(t *testing.T) {
	opts := DefaultFig8bOptions()
	opts.Gen.Apps = 8
	opts.Gen.Hosts = 8
	opts.Gen.Steps = 200
	opts.ScenariosPerApp = 8
	opts.TrainWindow = 180
	res, err := RunFig8b(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	if res.Total == 0 {
		t.Fatal("no scenarios evaluated")
	}
	// More Gibbs rounds should not reduce correct predictions and should
	// help at least somewhat from W=1 to W=8 (the cyclic-effects claim).
	if res.Correct[8] < res.Correct[1] {
		t.Fatalf("W=8 (%d) should not trail W=1 (%d)", res.Correct[8], res.Correct[1])
	}
	if res.Correct[4] == 0 {
		t.Fatal("W=4 should predict some scenarios correctly")
	}
}

func TestScalingAndSensitivity(t *testing.T) {
	sOpts := DefaultScalingOptions()
	sOpts.AppCounts = []int{2, 4}
	sRes, err := RunScaling(sOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + sRes.String())
	if len(sRes.Points) != 2 {
		t.Fatal("expected two scaling points")
	}
	if sRes.Points[1].Entities <= sRes.Points[0].Entities {
		t.Fatal("larger environment should have more entities")
	}
	for _, p := range sRes.Points {
		if p.TrainTime <= 0 || p.DiagTime <= 0 {
			t.Fatal("times must be measured")
		}
	}

	senOpts := DefaultSensitivityOptions()
	senOpts.Scenarios = 3
	senOpts.Samples = 150
	senOpts.Ws = []int{1, 4}
	senOpts.NTrains = []int{128, 256}
	senRes, err := RunSensitivity(senOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + senRes.String())
	if senRes.ByW[4].MeanTime < senRes.ByW[1].MeanTime {
		t.Log("note: W=4 measured faster than W=1 (timer noise at this scale)")
	}
	if senRes.ByW[4].Recall == 0 && senRes.ByW[1].Recall == 0 {
		t.Fatal("sensitivity sweep found nothing at any W")
	}
}

func TestCycleStats(t *testing.T) {
	gen := DefaultTable1Options().Gen
	gen.Steps = 160
	res, err := RunCycleStats(gen)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())
	if res.Cycles2 < 50 {
		t.Fatalf("2-cycles = %d, want pervasive", res.Cycles2)
	}
	if res.Cycles3 < 10 {
		t.Fatalf("3-cycles = %d, want plenty", res.Cycles3)
	}
	if res.VMsCyclic != res.VMsTotal {
		t.Fatalf("every VM should be on a cycle: %d/%d", res.VMsCyclic, res.VMsTotal)
	}
}
