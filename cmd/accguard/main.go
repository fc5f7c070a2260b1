// Command accguard is the CI accuracy guard: it reruns the fuzzed scenario
// suite with every diagnosis method (Murphy plus the NetMedic / ExplainIt /
// Sage baselines), compares per-method per-family precision/top-k against the
// checked-in baseline, and exits non-zero when *Murphy* drops beyond
// tolerance. Baseline-method drift is printed so reviewers see it, but never
// fails the run — the guard gates the system under development, not the
// comparison points. It is the accuracy-side sibling of benchguard:
// benchguard catches latency regressions, accguard catches the silent kind —
// a change that keeps every test green while degrading who gets blamed for
// incidents.
//
// Usage:
//
//	accguard -baseline testdata/acc_baseline.json -report acc_report.json
//	accguard -update               # rewrite the baseline from a fresh run
//	UPDATE_ACC_BASELINE=1 accguard # same, for CI-style invocation
//	accguard -current report.json  # compare a precomputed run instead of rerunning
//
// The suite is deterministic: the baseline records its base seed and suite
// size, and the comparison run replays exactly those cases, so any diff is a
// code change, never sampling noise. Improvements never fail the run; the
// printed table shows them so the baseline can be ratcheted with -update.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"murphy/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Getenv, os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the exit-code contract is
// unit-testable: 0 within tolerance, 1 on a Murphy regression (or any error),
// 2 on a flag error.
func run(args []string, getenv func(string) string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline  = fs.String("baseline", "testdata/acc_baseline.json", "baseline accuracy file to compare against")
		report    = fs.String("report", "", "also write the current run's accuracy JSON here (acc_report.json in CI)")
		seed      = fs.Int64("seed", 1, "base seed of the fuzzed suite (used only with -update or a missing baseline)")
		cases     = fs.Int("cases", 16, "cases per scenario family (used only with -update or a missing baseline)")
		tolerance = fs.Float64("tolerance", 0.05, "maximum allowed Murphy drop per metric (absolute)")
		update    = fs.Bool("update", false, "rewrite the baseline from a fresh run instead of comparing")
		current   = fs.String("current", "", "read the current run from this JSON file instead of rerunning the suite")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if getenv("UPDATE_ACC_BASELINE") == "1" {
		*update = true
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "accguard: %v\n", err)
		return 1
	}
	runSuite := func(seed int64, cases int) (*harness.BaselinesResult, error) {
		if *current != "" {
			data, err := os.ReadFile(*current)
			if err != nil {
				return nil, err
			}
			return harness.ParseBaselines(data)
		}
		return harness.RunBaselines(seed, cases)
	}

	if *update {
		cur, err := runSuite(*seed, *cases)
		if err != nil {
			return fail(err)
		}
		if err := writeResult(*baseline, cur); err != nil {
			return fail(err)
		}
		if err := writeReport(*report, cur); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "accguard: wrote baseline %s (seed=%d, %d cases/family)\n%s", *baseline, cur.Seed, cur.CasesPerFamily, cur)
		return 0
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		return fail(fmt.Errorf("%w (run with -update to create it)", err))
	}
	// Replay exactly the baseline's suite: same seed, same size.
	cur, err := runSuite(base.Seed, base.CasesPerFamily)
	if err != nil {
		return fail(err)
	}
	if err := writeReport(*report, cur); err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, cur)
	failed := compare(stdout, base, cur, *tolerance)
	if failed > 0 {
		return fail(fmt.Errorf("%d Murphy accuracy metric(s) dropped more than %.3f below baseline", failed, *tolerance))
	}
	fmt.Fprintln(stdout, "accguard: Murphy accuracy within tolerance of baseline")
	return 0
}

func readBaseline(path string) (*harness.BaselinesResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return harness.ParseBaselines(data)
}

func writeResult(path string, r *harness.BaselinesResult) error {
	data, err := r.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func writeReport(path string, r *harness.BaselinesResult) error {
	if path == "" {
		return nil
	}
	return writeResult(path, r)
}

// compare prints one row per (method, family, metric) and returns how many
// *Murphy* metrics dropped beyond tolerance. Baseline methods get a "drift"
// marker when they moved beyond tolerance in either direction, which tracks
// them in review without gating them. Methods or families present on only
// one side are reported but never fail the run, so adding a scheme or a
// scenario family does not require touching the guard.
func compare(w io.Writer, base, cur *harness.BaselinesResult, tolerance float64) int {
	failed := 0
	for _, method := range methodOrder(base.Methods, cur.Methods) {
		bFams, inBase := base.Methods[method]
		cFams, inCur := cur.Methods[method]
		switch {
		case !inBase:
			fmt.Fprintf(w, "  new      %-10s (no baseline rows)\n", method)
			continue
		case !inCur:
			fmt.Fprintf(w, "  missing  %-10s (in baseline, not in current run)\n", method)
			continue
		}
		fams := make([]string, 0, len(bFams))
		for fam := range bFams {
			fams = append(fams, fam)
		}
		sort.Strings(fams)
		for _, fam := range fams {
			b := bFams[fam]
			c, ok := cFams[fam]
			if !ok {
				fmt.Fprintf(w, "  missing  %-10s %-15s (in baseline, not in current suite)\n", method, fam)
				continue
			}
			for _, m := range []struct {
				name      string
				base, cur float64
			}{
				{"precision", b.Precision, c.Precision},
				{"top1", b.Top1, c.Top1},
				{"top3", b.Top3, c.Top3},
				{"top5", b.Top5, c.Top5},
			} {
				status := "ok"
				if method == harness.SchemeMurphy {
					if m.cur < m.base-tolerance {
						status = "REGRESS"
						failed++
					}
				} else if math.Abs(m.cur-m.base) > tolerance {
					status = "drift"
				}
				fmt.Fprintf(w, "  %-8s %-10s %-15s %-9s %.3f vs %.3f baseline\n", status, method, fam, m.name, m.cur, m.base)
			}
		}
		for fam := range cFams {
			if _, ok := bFams[fam]; !ok {
				fmt.Fprintf(w, "  new      %-10s %-15s (no baseline row)\n", method, fam)
			}
		}
	}
	return failed
}

// methodOrder merges both sides' method names: the fixed Schemes order
// first, then any extras alphabetically.
func methodOrder(a, b map[string]map[string]harness.FamilyAccuracy) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range harness.Schemes {
		if _, ok := a[s]; !ok {
			if _, ok := b[s]; !ok {
				continue
			}
		}
		out = append(out, s)
		seen[s] = true
	}
	var extra []string
	for m := range a {
		if !seen[m] {
			seen[m] = true
			extra = append(extra, m)
		}
	}
	for m := range b {
		if !seen[m] {
			seen[m] = true
			extra = append(extra, m)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
