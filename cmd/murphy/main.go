// Command murphy diagnoses a performance symptom against a monitoring
// snapshot: it loads a telemetry database from JSON (see cmd/murphygen for
// producing one), builds the relationship graph, trains the MRF online, and
// prints the ranked root causes with explanation chains.
//
// Usage:
//
//	murphy -snapshot db.json -entity backend-vm -metric cpu_util [-low]
//	murphy -snapshot db.json -app shop            # scan for symptoms first
//	murphy -snapshot db.json -entity backend-vm -metric cpu_util -o json
//	murphy -snapshot db.json -app shop -stats -trace
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"murphy"
	"murphy/internal/graph"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

func main() {
	var (
		snapshot = flag.String("snapshot", "", "path to a telemetry snapshot JSON (required)")
		entity   = flag.String("entity", "", "symptom entity ID")
		metric   = flag.String("metric", "", "symptom metric name")
		low      = flag.Bool("low", false, "symptom is abnormally low (default: high)")
		app      = flag.String("app", "", "affected application: scan it for symptoms and diagnose each")
		topK     = flag.Int("top", 5, "how many root causes to print per symptom")
		samples  = flag.Int("samples", 5000, "Monte-Carlo samples per counterfactual test")
		window   = flag.Int("window", 300, "online-training window (time slices)")
		timeout  = flag.Duration("timeout", 0, "diagnosis deadline; on expiry the partial ranking is printed (0 = none)")
		workers  = flag.Int("workers", 1, "worker pool for training fits and candidate evaluations (1 = sequential; results identical)")
		chains   = flag.Int("chains", 1, "independent Gibbs chains per counterfactual test (1 = single-stream sampler)")
		prec     = flag.String("precision", "float64", "sampling kernel precision: float64 (bit-stable default) or float32 (fast path)")
		retries  = flag.Int("retries", 0, "retry attempts for transient telemetry read faults (0 = no retry layer)")
		early    = flag.Float64("earlystop", 0, "early-stop confidence for the counterfactual tests, e.g. 0.999 (0 = full sample budget)")
		edges    = flag.String("edges", "", "edge-list file overlaying known associations onto the snapshot (\"a -> b\" directed, \"a -- b\" loose)")
		outFmt   = flag.String("o", "text", "output format: text or json (the versioned Report schema)")
		stats    = flag.Bool("stats", false, "print the per-stage timing and counter breakdown after each diagnosis")
		trace    = flag.Bool("trace", false, "stream pipeline stage and progress events to stderr as the diagnosis runs")
		listen   = flag.String("listen", "", "serve /metrics, /stats and /debug/pprof on this address while diagnosing (e.g. :6060)")
	)
	flag.Parse()
	if *snapshot == "" {
		fmt.Fprintln(os.Stderr, "murphy: -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
	if *outFmt != "text" && *outFmt != "json" {
		fmt.Fprintf(os.Stderr, "murphy: unknown output format %q (want text or json)\n", *outFmt)
		os.Exit(2)
	}
	f, err := os.Open(*snapshot)
	if err != nil {
		fatal(err)
	}
	db, err := telemetry.ReadJSON(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *edges != "" {
		ef, err := os.Open(*edges)
		if err != nil {
			fatal(err)
		}
		list, err := graph.ParseEdgeList(ef)
		ef.Close()
		if err != nil {
			fatal(err)
		}
		if err := graph.ApplyEdgeList(db, list); err != nil {
			fatal(err)
		}
	}
	cfg := murphy.DefaultConfig()
	cfg.Samples = *samples
	cfg.TrainWindow = *window
	cfg.Timeout = *timeout

	opts := []murphy.Option{murphy.WithConfig(cfg)}
	if *workers > 1 {
		opts = append(opts, murphy.WithWorkers(*workers))
	}
	sampler := murphy.SamplerConfig{Chains: *chains}
	if *early > 0 {
		sampler.EarlyStop = true
		sampler.EarlyStopConfidence = *early
	}
	switch *prec {
	case "float64", "f64", "":
		sampler.Precision = murphy.PrecisionFloat64
	case "float32", "f32":
		sampler.Precision = murphy.PrecisionFloat32
	default:
		fmt.Fprintf(os.Stderr, "murphy: unknown -precision %q (want float64 or float32)\n", *prec)
		os.Exit(2)
	}
	if sampler != (murphy.SamplerConfig{}) {
		opts = append(opts, murphy.WithSampler(sampler))
	}
	if *retries > 0 {
		opts = append(opts, murphy.WithResilience(murphy.Resilience{
			Retry: &murphy.RetryPolicy{MaxAttempts: *retries},
		}))
	}
	if *stats || *listen != "" {
		opts = append(opts, murphy.WithStats())
	}
	if *trace {
		opts = append(opts, murphy.WithObserver(&traceObserver{out: os.Stderr}))
	}
	var symptoms []telemetry.Symptom
	switch {
	case *entity != "" && *metric != "":
		opts = append(opts, murphy.WithSeeds(telemetry.EntityID(*entity)))
		symptoms = []telemetry.Symptom{{Entity: telemetry.EntityID(*entity), Metric: *metric, High: !*low}}
	case *app != "":
		opts = append(opts, murphy.WithApp(db, *app))
	default:
		fmt.Fprintln(os.Stderr, "murphy: need either -entity and -metric, or -app")
		os.Exit(2)
	}
	sys, err := murphy.New(db, opts...)
	if err != nil {
		fatal(err)
	}
	// SIGINT/SIGTERM cancels the diagnosis context: DiagnoseBatch returns
	// its partial results promptly and the observability listener (when one
	// is up) is shut down gracefully instead of dying mid-scrape.
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	var obsSrv *http.Server
	if *listen != "" {
		obsSrv = &http.Server{Addr: *listen, Handler: sys.ObservabilityMux(true)}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "murphy: observability listener: %v\n", err)
			}
		}()
		defer func() {
			if err := serve.ShutdownHTTP(obsSrv, 5*time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "murphy: observability shutdown: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "observability endpoint on %s (/metrics, /stats, /debug/pprof)\n", *listen)
	}
	if len(symptoms) == 0 {
		symptoms = sys.FindSymptoms(*app)
		if len(symptoms) == 0 {
			fmt.Printf("no problematic symptoms found in app %q at the latest slice\n", *app)
			return
		}
		fmt.Printf("found %d problematic symptom(s) in app %q\n", len(symptoms), *app)
	}
	// One DiagnoseBatch call trains the MRF once and reuses the model (and
	// the session's subgraph cache) for every symptom, instead of paying the
	// online training pass per symptom.
	items, err := sys.DiagnoseBatch(ctx, symptoms)
	if err != nil {
		fatal(err)
	}
	for _, item := range items {
		if *outFmt == "text" {
			fmt.Printf("\n=== symptom: %s ===\n", item.Symptom)
		}
		if item.Err != nil {
			fmt.Fprintf(os.Stderr, "murphy: %v\n", item.Err)
			continue
		}
		if *outFmt == "json" {
			if err := item.Report.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			printReport(db, item.Report, *topK)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "--- pipeline breakdown: %s ---\n%s", item.Symptom, sys.Stats().Table())
		}
	}
}

// printReport renders one report in the human-readable text format.
func printReport(db *telemetry.DB, report *murphy.Report, topK int) {
	if report.Partial {
		fmt.Printf("PARTIAL result: %d of %d candidates not fully evaluated\n",
			len(report.Skipped), len(report.Candidates))
	}
	if report.ReadFailures > 0 {
		fmt.Printf("%d telemetry reads failed and were treated as missing data\n", report.ReadFailures)
	}
	if len(report.Causes) == 0 {
		fmt.Println("no root cause passed the counterfactual test")
		return
	}
	for i, rc := range report.Top(topK) {
		e := db.Entity(rc.Entity)
		if rc.Degraded {
			fmt.Printf("%2d. %-40s anomaly=%.1f  DEGRADED (%s)\n", i+1, e, rc.Score, rc.Reason)
			continue
		}
		fmt.Printf("%2d. %-40s anomaly=%.1f  p=%.4f  effect=%.2f\n", i+1, e, rc.Score, rc.PValue, rc.Effect)
		if rc.Explanation != "" {
			fmt.Printf("    chain: %s\n", rc.Explanation)
		}
	}
	if len(report.RecentChanges) > 0 {
		fmt.Println("recent configuration changes in the training window:")
		for _, ev := range report.RecentChanges {
			fmt.Printf("    %s\n", ev)
		}
	}
}

// traceObserver streams pipeline events to a writer as they happen.
type traceObserver struct {
	out      *os.File
	lastDone int
}

func (o *traceObserver) StageStart(st murphy.Stage) {
	fmt.Fprintf(o.out, "[trace] %s: start\n", st)
}

func (o *traceObserver) StageEnd(st murphy.Stage, wall, cpu time.Duration) {
	fmt.Fprintf(o.out, "[trace] %s: done in %s (cpu %s)\n", st, wall.Round(time.Microsecond), cpu.Round(time.Microsecond))
}

func (o *traceObserver) Progress(st murphy.Stage, done, total int, entity string) {
	// Thin the stream: at most ~20 progress lines per stage.
	step := total / 20
	if step < 1 {
		step = 1
	}
	if done != total && done/step == o.lastDone/step {
		o.lastDone = done
		return
	}
	o.lastDone = done
	fmt.Fprintf(o.out, "[trace] %s: %d/%d (%s)\n", st, done, total, entity)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "murphy: %v\n", err)
	os.Exit(1)
}
