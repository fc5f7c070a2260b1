package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test checks against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMatchesCode pins the metric and workload tables to
// BENCHMARK.json.
func TestDeclaredMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: code %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}

// TestSmoke runs a tiny version of every workload, untraced and traced, and
// checks that each passes its output checks and prints every metric it
// declares with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots murphyd and runs every workload")
	}
	murphyd := filepath.Join(t.TempDir(), "murphyd")
	if out, err := exec.Command("go", "build", "-o", murphyd, "murphy/cmd/murphyd").CombinedOutput(); err != nil {
		t.Fatalf("build murphyd: %v\n%s", err, out)
	}
	d := readDeclared(t)
	for _, w := range d.Workloads {
		for _, trace := range []int{0, 1} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{
					"-workload", w.Name, "-seed", "7", "-seconds", "0.1", "-trace", strconv.Itoa(trace),
					"-tiny", "-murphyd", murphyd, "-workdir", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := d.EndToEnd
				if trace == 1 {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; end-to-end metrics are never 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
