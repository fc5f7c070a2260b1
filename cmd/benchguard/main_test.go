package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
BenchmarkCoreDiagnose-8 	       1	20672403 ns/op
BenchmarkGibbsKernel/float64-8 	      50	63750994 ns/op	   2258789 samples/sec
BenchmarkGibbsKernel/float32-8 	      50	12459799 ns/op	  11557179 samples/sec	       5 extra/op
PASS
`

func TestParseBenchUnits(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	d := got["BenchmarkCoreDiagnose"]
	if d["ns/op"] != 20672403 {
		t.Errorf("CoreDiagnose ns/op = %v, want 20672403", d["ns/op"])
	}
	if _, ok := d["samples/sec"]; ok {
		t.Errorf("CoreDiagnose should have no samples/sec metric")
	}
	k := got["BenchmarkGibbsKernel/float32"]
	if k["ns/op"] != 12459799 {
		t.Errorf("GibbsKernel/float32 ns/op = %v, want 12459799", k["ns/op"])
	}
	if k["samples/sec"] != 11557179 {
		t.Errorf("GibbsKernel/float32 samples/sec = %v, want 11557179", k["samples/sec"])
	}
	if _, ok := k["extra/op"]; ok {
		t.Errorf("unguarded unit extra/op should be ignored")
	}
}

func TestCompareDirections(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkA": {"ns/op": 100, "samples/sec": 1000},
	}
	cases := []struct {
		name   string
		cur    metrics
		failed int
	}{
		{"unchanged", metrics{"ns/op": 100, "samples/sec": 1000}, 0},
		// ns/op is lower-is-better: 3x slower is within a 4x tolerance,
		// 5x slower is not.
		{"slower-within", metrics{"ns/op": 300, "samples/sec": 1000}, 0},
		{"slower-beyond", metrics{"ns/op": 500, "samples/sec": 1000}, 1},
		// samples/sec is higher-is-better: halving is within tolerance,
		// an 8x throughput drop fails; an 8x *gain* never fails.
		{"throughput-within", metrics{"ns/op": 100, "samples/sec": 500}, 0},
		{"throughput-beyond", metrics{"ns/op": 100, "samples/sec": 125}, 1},
		{"throughput-gain", metrics{"ns/op": 100, "samples/sec": 8000}, 0},
		// Both directions regressing counts each metric.
		{"both-regress", metrics{"ns/op": 500, "samples/sec": 125}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			got := compare(&sb, base, map[string]metrics{"BenchmarkA": tc.cur}, 4.0)
			if got != tc.failed {
				t.Errorf("compare = %d failures, want %d\n%s", got, tc.failed, sb.String())
			}
		})
	}
}

func TestCompareOneSided(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkOld": {"ns/op": 100},
		"BenchmarkB":   {"ns/op": 100},
	}
	cur := map[string]metrics{
		"BenchmarkNew": {"ns/op": 1e9, "samples/sec": 1},
		"BenchmarkB":   {"ns/op": 100, "samples/sec": 1}, // new metric on known bench
	}
	var sb strings.Builder
	if got := compare(&sb, base, cur, 4.0); got != 1 {
		t.Errorf("new benchmarks/metrics must never fail and the missing BenchmarkOld must fail once, got %d failures\n%s", got, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"new", "MISSING", "BenchmarkOld", "BenchmarkNew"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCompareMissingFails renames a gated benchmark and drops a gated metric:
// a run whose renamed row reads 1 sample/s must not pass by leaving the
// baseline row unmatched, and neither may a row that stops reporting its
// samples/sec.
func TestCompareMissingFails(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkGibbsKernel/float64": {"ns/op": 84930569, "samples/sec": 1695511},
		"BenchmarkK":                   {"ns/op": 100, "samples/sec": 1000},
	}
	cur := map[string]metrics{
		"BenchmarkGibbsKernel": {"ns/op": 999999999, "samples/sec": 1},
		"BenchmarkK":           {"ns/op": 100},
	}
	var sb strings.Builder
	if got := compare(&sb, base, cur, 4.0); got != 2 {
		t.Errorf("compare = %d failures, want 2 (the renamed row and the dropped metric)\n%s", got, sb.String())
	}
	for _, want := range []string{"MISSING  BenchmarkGibbsKernel/float64", "MISSING  BenchmarkK"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, sb.String())
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	parsed, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/baseline.txt"
	if err := writeBaseline(path, parsed); err != nil {
		t.Fatal(err)
	}
	back, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(parsed) {
		t.Fatalf("round trip lost benchmarks: %d -> %d", len(parsed), len(back))
	}
	for name, m := range parsed {
		for u, v := range m {
			if back[name][u] != v {
				t.Errorf("%s %s = %v after round trip, want %v", name, u, back[name][u], v)
			}
		}
	}
}
