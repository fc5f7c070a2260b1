// Command murphyd runs Murphy as an always-on diagnosis daemon: it serves an
// HTTP/JSON ingest path that appends telemetry into the monitoring database
// as windows slide, continuously scans fresh windows for problematic
// symptoms, and feeds them (plus client-requested symptoms) through a
// bounded diagnosis queue with admission control, deadline propagation, a
// stuck-diagnosis watchdog, and crash-safe state snapshots.
//
// Usage:
//
//	murphyd -listen :8080 -state /var/lib/murphyd/state.json
//	murphyd -listen :8080 -snapshot db.json            # bootstrap telemetry
//	murphyd -listen :8080 -queue 32 -workers 4 -detect-every 10s
//	murphyd -listen :8080 -state state.json -inctrain  # amortized training
//
// Endpoints: POST /ingest, POST /diagnose, GET /reports, GET /topology,
// GET /entities/{ref}/performance, GET /healthz, GET /readyz, GET /statusz,
// plus /metrics /stats /debug/vars (and /debug/pprof with -pprof).
//
// With -reportdir, completed diagnosis reports are additionally persisted to
// an append-only, crash-safe segment file before they are acknowledged, and
// GET /reports searches the persisted store (by entity, app, cause, source,
// and time range, with cursor pagination) instead of the bounded in-memory
// ring; -report-retention caps how many reports the store keeps.
//
// On SIGINT/SIGTERM the daemon drains gracefully: readiness flips off, new
// work is shed with 503, queued and in-flight diagnoses finish (bounded by
// -drain-timeout), a final state snapshot is flushed, and the process exits
// 0. A crash instead loses at most one snapshot interval: on restart the
// daemon recovers the latest -state snapshot and resumes serving correct
// diagnoses for pre-crash symptoms.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"murphy"
	"murphy/internal/chaos"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "address to serve the daemon API on")
		snapshot = flag.String("snapshot", "", "telemetry snapshot JSON to bootstrap the database from (ignored when -state recovery succeeds)")
		state    = flag.String("state", "", "crash-safe daemon state file: recovered on boot, written every -snapshot-every and on drain (\"\" disables persistence)")
		queueCap = flag.Int("queue", 16, "diagnosis queue capacity; a full queue sheds with 429 + Retry-After")
		workers  = flag.Int("workers", 2, "diagnosis workers draining the queue")
		samples  = flag.Int("samples", 1000, "Monte-Carlo samples per counterfactual test")
		window   = flag.Int("window", 300, "online-training window (time slices)")
		deadline = flag.Duration("deadline", 30*time.Second, "default per-diagnosis deadline when the client names none")
		watchdog = flag.Duration("watchdog", 2*time.Minute, "hard per-diagnosis budget; exceeding it cancels the diagnosis and quarantines the symptom")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight work before force-cancelling")
		detect   = flag.Duration("detect-every", 15*time.Second, "continuous symptom-detector cadence (0 disables the detector)")
		snapEv   = flag.Duration("snapshot-every", 30*time.Second, "periodic state-snapshot cadence (needs -state)")
		ingestN  = flag.Int("max-ingest", 4, "concurrently applied ingest batches; excess sheds with 429")
		readsN   = flag.Int("max-reads", 16, "concurrently served operator queries (/topology, /entities, /reports); excess sheds with 429")
		repDir   = flag.String("reportdir", "", "directory for the persisted report store: completed diagnoses are appended crash-safely and GET /reports searches them across restarts (\"\" keeps the in-memory ring only)")
		repKeep  = flag.Int("report-retention", 10000, "reports retained in the persisted store before compaction drops the oldest (needs -reportdir)")
		retries  = flag.Int("retries", 0, "retry attempts for transient telemetry read faults (0 = no retry layer)")
		inctrain = flag.Bool("inctrain", false, "train incrementally: slide per-factor sufficient statistics as windows advance instead of retraining full windows; the factor store persists in the -state snapshot so warm restarts skip training")
		driftTh  = flag.Float64("drift-threshold", 0, "MASE drift score above which an incrementally maintained factor is fully refit (0 = default 4.0; needs -inctrain)")
		pprof    = flag.Bool("pprof", false, "expose /debug/pprof on the daemon mux")
		// Chaos flags drive soak drills: they inject faults into the
		// daemon's own telemetry read path so the degradation ladder is
		// exercisable against a real process.
		chaosFault   = flag.Float64("chaos-fault", 0, "probability a telemetry read fails transiently (soak drills)")
		chaosLatency = flag.Float64("chaos-latency", 0, "probability a telemetry read stalls (soak drills)")
		chaosStall   = flag.Duration("chaos-stall", 5*time.Millisecond, "injected stall duration for -chaos-latency")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "per-value probability a read is corrupted to missing (soak drills)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "chaos injector seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first non-flag argument, so anything after it
		// (including later flags) would be silently dropped.
		fmt.Fprintf(os.Stderr, "murphyd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	// Boot order: recover the latest crash-safe state snapshot if one
	// exists; otherwise fall back to the bootstrap telemetry snapshot;
	// otherwise start with an empty database fed purely by /ingest.
	var (
		db      *telemetry.DB
		restore func(*serve.Server)
	)
	if *state != "" {
		rdb, rfn, err := serve.RecoverFromDisk(*state)
		if err != nil {
			fatal(fmt.Errorf("recover state %s: %w", *state, err))
		}
		if rdb != nil {
			db, restore = rdb, rfn
			fmt.Fprintf(os.Stderr, "murphyd: recovered state from %s (%d slices)\n", *state, db.Len())
		}
	}
	if db == nil && *snapshot != "" {
		f, err := os.Open(*snapshot)
		if err != nil {
			fatal(err)
		}
		db, err = telemetry.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if db == nil {
		db = telemetry.NewDB(600)
	}

	cfg := murphy.DefaultConfig()
	cfg.Samples = *samples
	cfg.TrainWindow = *window
	sysOpts := []murphy.Option{murphy.WithConfig(cfg)}
	res := murphy.Resilience{}
	if *chaosFault > 0 || *chaosLatency > 0 || *chaosCorrupt > 0 {
		res.Source = chaos.Wrap(db, chaos.Config{
			Seed:        *chaosSeed,
			FaultRate:   *chaosFault,
			LatencyRate: *chaosLatency,
			Latency:     *chaosStall,
			CorruptRate: *chaosCorrupt,
		})
	}
	if *retries > 0 {
		res.Retry = &murphy.RetryPolicy{MaxAttempts: *retries}
	}
	if res.Source != nil || res.Retry != nil {
		sysOpts = append(sysOpts, murphy.WithResilience(res))
	}
	if *inctrain {
		sysOpts = append(sysOpts, murphy.WithIncrementalTraining(murphy.IncrementalTraining{
			DriftThreshold: *driftTh,
		}))
	}

	srv, err := serve.New(db, serve.Config{
		QueueCap:            *queueCap,
		Workers:             *workers,
		MaxConcurrentIngest: *ingestN,
		MaxConcurrentReads:  *readsN,
		ReportDir:           *repDir,
		ReportRetention:     *repKeep,
		DefaultDeadline:     *deadline,
		WatchdogTimeout:     *watchdog,
		DetectEvery:         *detect,
		SnapshotPath:        *state,
		SnapshotEvery:       *snapEv,
		DrainTimeout:        *drainTO,
		Pprof:               *pprof,
	}, sysOpts...)
	if err != nil {
		fatal(err)
	}
	if restore != nil {
		restore(srv)
	}
	srv.Start()

	hs := &http.Server{Addr: *listen, Handler: srv.Mux()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "murphyd: serving on %s (queue=%d workers=%d detect=%s state=%q)\n",
		*listen, *queueCap, *workers, *detect, *state)

	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		srv.Close()
		fatal(fmt.Errorf("listener: %w", err))
	}

	fmt.Fprintln(os.Stderr, "murphyd: signal received, draining")
	if err := srv.Drain(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "murphyd: drain: %v\n", err)
	}
	if err := serve.ShutdownHTTP(hs, 10*time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "murphyd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "murphyd: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "murphyd: %v\n", err)
	os.Exit(1)
}
