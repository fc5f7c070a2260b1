// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload with a seed, measures it for a fixed number of seconds,
// checks the outputs, and prints one JSON result as its last line of output:
//
//	perfbench -murphyd ./murphyd -workload triage -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, which come from a traced replay of the same
// script that calls each layer's functions in process and records a span
// around every call. README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// murphyd is the daemon binary the daemon workloads boot.
	murphyd string
	// workdir holds the run's scratch files and the written-out traces.
	workdir string
	// tiny shrinks every workload to a few operations (smoke test).
	tiny bool
}

// budget is the timed-phase length of a run.
func (o *options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: triage, fleet-whatif or operator-reads")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay; 0 reports end-to-end metrics")
	fs.StringVar(&o.murphyd, "murphyd", "", "murphyd binary for the daemon workloads")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for scratch files and traces")
	fs.BoolVar(&o.tiny, "tiny", false, "run a tiny version of the workload (smoke test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(loadThreads())

	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := &env{opts: o, dir: dir, log: stderr}
	out, err := w.run(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if o.trace && out.trace != nil {
		path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := out.trace.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(out.trace.spans), path)
	}
	res := out.result(w, o.trace)
	printSummary(stdout, w, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// loadThreads caps the load generator at two OS threads, or fewer on a
// smaller machine.
func loadThreads() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// env is what a workload needs from the command line.
type env struct {
	opts options
	dir  string
	log  io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// printSummary prints a human-readable table ahead of the JSON line: every
// reported metric with its unit, and the sample count and percentile behind
// each latency.
func printSummary(w io.Writer, wl *workload, out *outcome, res *result) {
	fmt.Fprintf(w, "workload %s: %d passes, %.2f s timed, %d ops attempted, %d failed\n",
		wl.name, out.passes, out.timed.Seconds(), res.Attempted, res.Failed)
	kinds := make([]string, 0, len(out.lat))
	for k := range out.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := out.lat[k]
		fmt.Fprintf(w, "  %-16s n=%-6d p50/75/90/95/99 = %.3f %.3f %.3f %.3f %.3f ms, tail p%g  (%s)\n", k, len(xs),
			percentile(xs, 50), percentile(xs, 75), percentile(xs, 90), percentile(xs, 95), percentile(xs, 99), wl.tail(k), wl.loop(k))
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
