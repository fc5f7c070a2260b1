// Command murphybench regenerates the paper's tables and figures on the
// emulated environments. Each experiment prints the same rows or series the
// paper reports; -full uses paper-scale parameters (slower), the default is
// a reduced-scale run with the identical code path.
//
// Usage:
//
//	murphybench -exp all
//	murphybench -exp fig5c,table1 -full
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"murphy/internal/enterprise"
	"murphy/internal/harness"
	"murphy/internal/obs"
	"murphy/internal/serve"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: fig5c, fig5d, table1, fig6b, fig6c, table2, fig7, fig8a, fig8b, scaling, sensitivity, cycles, fastpath, obsoverhead, inctrain, baselines, sweep, soak, all")
		full    = flag.Bool("full", false, "use paper-scale parameters (slow)")
		stats   = flag.Bool("stats", false, "print the accumulated per-stage timing and counter breakdown at exit")
		trace   = flag.Bool("trace", false, "stream pipeline stage events to stderr as experiments run")
		jsonOut = flag.String("json", "", "write a machine-readable benchmark report (ns/op, samples/sec, speedups) to this file, e.g. BENCH_murphy.json")
	)
	flag.Parse()
	if *stats || *trace {
		// Experiments drive the core directly; the core's instrumentation
		// falls back to the process-global recorder.
		obs.Global().Enable()
	}
	if *trace {
		obs.Global().Attach(stderrTracer{})
	}
	if *stats {
		defer func() {
			fmt.Fprintf(os.Stderr, "--- pipeline breakdown (all experiments) ---\n%s", obs.Global().Snapshot().Table())
		}()
	}
	report := newBenchReport()
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	run := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "murphybench: %v\n", err)
		os.Exit(1)
	}

	if run("fig5c", "fig5d", "fig5") {
		opts := harness.DefaultFig5Options()
		if *full {
			opts.Samples = 5000
			opts.Steps = 400
		}
		res, err := harness.RunFig5(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("table1") {
		opts := harness.DefaultTable1Options()
		if *full {
			opts.Samples = 5000
			opts.Gen.Apps = 12
			opts.Gen.Hosts = 12
		}
		res, err := harness.RunTable1(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("fig6b", "fig6c", "fig6") {
		for _, topo := range []string{"social", "hotel"} {
			if !all && !want["fig6"] {
				if topo == "social" && !want["fig6b"] {
					continue
				}
				if topo == "hotel" && !want["fig6c"] {
					continue
				}
			}
			opts := harness.DefaultFig6Options()
			opts.Topo = topo
			if *full {
				opts.Scenarios = 100
				opts.Samples = 5000
			}
			res, err := harness.RunFig6(opts)
			if err != nil {
				fail(err)
			}
			fmt.Print(res)
		}
	}
	if run("table2") {
		opts := harness.DefaultTable2Options()
		if *full {
			opts.Scenarios = 50
			opts.Samples = 5000
		}
		res, err := harness.RunTable2(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("fig7") {
		opts := harness.DefaultFig7Options()
		if *full {
			opts.Scenarios = 64
			opts.Samples = 5000
		}
		res, err := harness.RunFig7(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("fig8a") {
		opts := harness.DefaultFig8aOptions()
		if *full {
			opts.Gen.Apps = 300
			opts.Gen.Hosts = 120
			opts.Gen.MaxVMsPerTier = 3
		}
		res, err := harness.RunFig8a(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("fig8b") {
		opts := harness.DefaultFig8bOptions()
		if *full {
			opts.ScenariosPerApp = 32
			opts.Samples = 5000
		}
		res, err := harness.RunFig8b(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("scaling") {
		opts := harness.DefaultScalingOptions()
		if *full {
			opts.AppCounts = []int{4, 8, 16, 32}
		}
		res, err := harness.RunScaling(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("sensitivity") {
		opts := harness.DefaultSensitivityOptions()
		if *full {
			opts.Scenarios = 32
			opts.Samples = 5000
		}
		res, err := harness.RunSensitivity(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("fastpath") {
		opts := harness.DefaultFastPathOptions()
		if *full {
			opts.Scenarios = 12
			opts.Samples = 5000
			opts.Rounds = 3
		}
		res, err := harness.RunFastPath(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
		report.FastPath = fastPathReport(res)
	}
	if run("obsoverhead") {
		opts := harness.DefaultObsOverheadOptions()
		if *full {
			opts.Scenarios = 8
			opts.Samples = 5000
			opts.Rounds = 5
		}
		res, err := harness.RunObsOverhead(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if run("inctrain") {
		arms := []harness.IncTrainOptions{harness.DefaultIncTrainOptions()}
		if *full {
			arms[0].Steps = 520
			arms[0].Slides = 100
			arms[0].Samples = 2000
			// Enterprise-scale arms: ~18 entities per app puts these replays
			// near 1k and 10k candidate entities.
			scale1k := harness.DefaultIncTrainOptions()
			scale1k.Apps = 56
			scale1k.Slides = 8
			scale10k := harness.DefaultIncTrainOptions()
			scale10k.Apps = 560
			scale10k.Slides = 4
			arms = append(arms, scale1k, scale10k)
		}
		for _, opts := range arms {
			res, err := harness.RunIncTrain(opts)
			if err != nil {
				fail(err)
			}
			fmt.Print(res)
			report.IncTrain = append(report.IncTrain, incTrainReport(res))
			if !res.ToleranceOK || !res.CausesIdentical {
				fail(fmt.Errorf("inctrain: incremental training diverged from full retrain (max delta %.2e, causes identical %v)",
					res.MaxDelta, res.CausesIdentical))
			}
		}
	}
	if run("baselines") {
		cases := 16 // matches the accguard-pinned suite (seed 1, 16 cases/family)
		if *full {
			cases = 32
		}
		res, err := harness.RunBaselines(1, cases)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
		report.Baselines = res
	}
	if run("sweep") {
		cases := 8
		if *full {
			cases = 16
		}
		res, err := harness.RunRegressorSweep(1, cases)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
		report.RegressorSweep = res
	}
	if run("soak") {
		opts := serve.DefaultSoakOptions()
		if *full {
			opts.Duration = 15 * time.Second
			opts.Samples = 1000
		}
		res, err := serve.RunSoak(opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
		report.Soak = res
		if vs := res.Violations(); len(vs) > 0 {
			fail(fmt.Errorf("soak drill violated the degradation ladder: %s", strings.Join(vs, "; ")))
		}
	}
	if run("cycles") {
		gen := enterprise.DefaultGenOptions()
		gen.Apps = 8
		gen.Hosts = 8
		gen.Steps = 160
		if *full {
			gen.Apps = 40
			gen.Hosts = 30
			gen.MaxVMsPerTier = 3
		}
		res, err := harness.RunCycleStats(gen)
		if err != nil {
			fail(err)
		}
		fmt.Print(res)
	}
	if *jsonOut != "" {
		if err := writeBenchReport(*jsonOut, report); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote benchmark report to %s\n", *jsonOut)
	}
}

// stderrTracer streams stage events from the global recorder to stderr.
type stderrTracer struct{}

func (stderrTracer) StageStart(st obs.Stage) {
	fmt.Fprintf(os.Stderr, "[trace] %s: start\n", st)
}

func (stderrTracer) StageEnd(st obs.Stage, wall, cpu time.Duration) {
	fmt.Fprintf(os.Stderr, "[trace] %s: done in %s (cpu %s)\n", st, wall.Round(time.Microsecond), cpu.Round(time.Microsecond))
}

func (stderrTracer) Progress(obs.Stage, int, int, string) {}
