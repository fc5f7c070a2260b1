// Command benchguard compares `go test -bench` output against a checked-in
// baseline and fails when a guarded benchmark regresses beyond a tolerance.
// It is a dependency-free stand-in for benchstat aimed at CI smoke runs: one
// iteration per benchmark, generous tolerance, hard failure only on order-of-
// magnitude slides.
//
// Usage:
//
//	go test -run '^$' -bench 'CoreDiagnose|FastPath' -benchtime 1x . | \
//	    benchguard -baseline testdata/bench_baseline.txt -tolerance 4.0
//
//	benchguard -baseline testdata/bench_baseline.txt -input bench.txt -update
//
// The baseline file is the raw benchmark output format ("BenchmarkName N
// ns/op"); -update rewrites it from the current input instead of comparing.
// A baseline row or metric that the run lacks fails it, so a renamed or
// dropped benchmark cannot take its gate with it; retiring a benchmark means
// deleting its baseline row. A benchmark or metric with no baseline is
// reported as new and never fails.
//
// Two metric classes are guarded. ns/op is lower-is-better: the guard fails
// when current exceeds baseline by more than the tolerance factor. Throughput
// metrics (samples/sec, reported by the Gibbs-kernel benchmarks via
// b.ReportMetric) are higher-is-better: the guard fails when current falls
// below baseline divided by the tolerance factor. Other custom metrics are
// ignored.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// guardedUnits maps each guarded metric unit to its comparison direction.
var guardedUnits = map[string]bool{
	"ns/op":       false, // lower is better
	"samples/sec": true,  // higher is better
}

func main() {
	var (
		baseline  = flag.String("baseline", "testdata/bench_baseline.txt", "baseline benchmark output to compare against")
		input     = flag.String("input", "-", "current benchmark output ('-' = stdin)")
		tolerance = flag.Float64("tolerance", 4.0, "fail when a metric regresses beyond this factor (slower ns/op, lower samples/sec)")
		update    = flag.Bool("update", false, "rewrite the baseline from the current input instead of comparing")
	)
	flag.Parse()

	cur, err := readBench(*input)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no benchmark lines in %s", *input))
	}
	if *update {
		if err := writeBaseline(*baseline, cur); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(cur), *baseline)
		return
	}
	base, err := readBenchFile(*baseline)
	if err != nil {
		fatal(err)
	}
	failed := compare(os.Stdout, base, cur, *tolerance)
	if failed > 0 {
		fatal(fmt.Errorf("%d metric(s) regressed beyond %.1fx or missing from the run", failed, *tolerance))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
	os.Exit(1)
}

// metrics is one benchmark's guarded measurements, keyed by unit.
type metrics map[string]float64

// parseBench extracts "BenchmarkX-N  iters  <value> <unit> ..." rows from
// benchmark output, keeping every guarded unit on the line (ns/op plus custom
// metrics like samples/sec). The CPU-count suffix (-8) is stripped so
// baselines transfer across runners.
func parseBench(r io.Reader) (map[string]metrics, error) {
	out := map[string]metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var m metrics
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if _, guarded := guardedUnits[unit]; !guarded {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q on %q", unit, fields[i], sc.Text())
			}
			if m == nil {
				m = metrics{}
			}
			m[unit] = v
		}
		if m == nil {
			continue
		}
		name := fields[0]
		if cut := strings.LastIndex(name, "-"); cut > 0 {
			if _, err := strconv.Atoi(name[cut+1:]); err == nil {
				name = name[:cut]
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

func readBench(path string) (map[string]metrics, error) {
	if path == "-" {
		return parseBench(os.Stdin)
	}
	return readBenchFile(path)
}

func readBenchFile(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func writeBaseline(path string, benches map[string]metrics) error {
	names := make([]string, 0, len(benches))
	for n := range benches {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# benchguard baseline: single-iteration guarded metrics per benchmark.\n")
	b.WriteString("# Regenerate: go test -run '^$' -bench <pattern> -benchtime 1x . | benchguard -update -baseline <this file>\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s 1", n)
		units := make([]string, 0, len(benches[n]))
		for u := range benches[n] {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Fprintf(&b, " %.0f %s", benches[n][u], u)
		}
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// compare prints one row per (benchmark, metric) and returns how many
// failed: ns/op fails above tolerance, higher-is-better metrics fail below
// 1/tolerance, and a baseline row or metric absent from cur fails once.
func compare(w io.Writer, base, cur map[string]metrics, tolerance float64) int {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	failed := 0
	for _, n := range names {
		bm, ok := base[n]
		if !ok {
			for _, u := range sortedUnits(cur[n]) {
				fmt.Fprintf(w, "  new      %-55s %12.0f %s (no baseline)\n", n, cur[n][u], u)
			}
			continue
		}
		for _, u := range sortedUnits(cur[n]) {
			bv, ok := bm[u]
			if !ok {
				fmt.Fprintf(w, "  new      %-55s %12.0f %s (no baseline)\n", n, cur[n][u], u)
				continue
			}
			ratio := cur[n][u] / bv
			status := "ok"
			if guardedUnits[u] {
				// Higher is better: fail when throughput dropped by tolerance.
				if ratio < 1/tolerance {
					status = "REGRESS"
					failed++
				}
			} else if ratio > tolerance {
				status = "REGRESS"
				failed++
			}
			fmt.Fprintf(w, "  %-8s %-55s %12.0f %s vs %12.0f (%.2fx)\n", status, n, cur[n][u], u, bv, ratio)
		}
		for _, u := range sortedUnits(bm) {
			if _, ok := cur[n][u]; !ok {
				fmt.Fprintf(w, "  MISSING  %-55s %s (in baseline, not in current run)\n", n, u)
				failed++
			}
		}
	}
	var gone []string
	for n := range base {
		if _, ok := cur[n]; !ok {
			gone = append(gone, n)
		}
	}
	sort.Strings(gone)
	for _, n := range gone {
		fmt.Fprintf(w, "  MISSING  %-55s (in baseline, not in current run)\n", n)
		failed++
	}
	return failed
}

func sortedUnits(m metrics) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}
