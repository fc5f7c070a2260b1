package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"murphy"
	"murphy/internal/anomaly"
	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// fleetWorkload is capacity planning over a ~1k-entity enterprise fleet
// through the library facade with incremental training: every round appends
// the next slice, scans one app for symptoms, and asks a what-if question of
// two of its VMs.
var fleetWorkload = &workload{
	name:    "fleet-whatif",
	primary: "plan",
	tails:   map[string]float64{"plan": 90, "whatif": 90, "ingest": 90},
	loops: map[string]string{
		"plan":       "closed loop, 1 in-process caller",
		"whatif":     "closed loop, 1 in-process caller",
		"whatif_hit": "closed loop, 1 in-process caller",
		"scan":       "closed loop, 1 in-process caller",
		"ingest":     "closed loop, 1 in-process caller",
	},
	run: runFleet,
}

// fleetSize sizes the script: apps in the fleet, rounds per pass, and how
// many rounds of the first pass are checked against a full retrain.
type fleetSize struct{ apps, rounds, checks int }

func fleetSizeFor(tiny bool) fleetSize {
	if tiny {
		return fleetSize{apps: 4, rounds: 3, checks: 1}
	}
	return fleetSize{apps: 72, rounds: 40, checks: 2}
}

const (
	fleetPreload = 320
	fleetWindow  = 300
	fleetSeed    = 1
)

func fleetConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TrainWindow = fleetWindow
	return cfg
}

// fleetOptions are the library options of the workload's session.
func fleetOptions() []murphy.Option {
	return []murphy.Option{
		murphy.WithConfig(fleetConfig()),
		murphy.WithIncrementalTraining(murphy.IncrementalTraining{}),
	}
}

// fleetScript is the seeded script: every round's two questions, and the
// rounds of the first pass whose predictions are checked.
type fleetScript struct {
	questions [][2]question
	check     map[int]bool
}

func runFleet(e *env) (*outcome, error) {
	sz := fleetSizeFor(e.opts.tiny)
	// The fleet is a fixture: how much a store slide costs depends on the
	// data's dynamics (how many factors drift, refit or re-rank), which
	// moved the what-if latency by ±10% between generated fleets. The seed
	// picks the questions and the checked rounds.
	fl, err := newFleet(fleetSeed, sz.apps, fleetPreload, 1+sz.rounds)
	if err != nil {
		return nil, err
	}
	e.logf("fleet: %d apps, %d entities", len(fl.apps), fl.base.NumEntities())
	rng := rand.New(rand.NewSource(e.opts.seed))
	sc := fleetScript{check: map[int]bool{}}
	for r := 0; r < sz.rounds; r++ {
		sc.questions = append(sc.questions, fl.roundQuestions(rng))
	}
	for _, r := range rng.Perm(sz.rounds)[:sz.checks] {
		sc.check[r] = true
	}
	// The peak resident set should be the sessions', not the fixture
	// generator's: hand the generator's garbage back to the OS and restart
	// the high-water mark from the current resident set.
	debug.FreeOSMemory()
	if err := resetHWM(); err != nil {
		return nil, err
	}
	out := newOutcome()
	// Passes always run whole, so every run averages over the same mix of
	// rounds whatever its speed.
	var first *fleetPassResult
	for pass := 0; pass == 0 || out.timed < e.opts.budget(); pass++ {
		res, err := fleetPass(fl, sc, sz.rounds, out)
		if err != nil {
			return nil, err
		}
		out.passes++
		if pass == 0 {
			first = res
		}
	}
	for len(out.setups) < 3 {
		if _, err := fleetPass(fl, sc, 0, out); err != nil {
			return nil, err
		}
	}
	if out.rssMB, err = vmHWM("/proc/self/status"); err != nil {
		return nil, err
	}
	if err := checkFullTrain(fl, sc, first, out); err != nil {
		return nil, err
	}
	if e.opts.trace {
		return out, fleetReplay(fl, sc, first, out)
	}
	return out, nil
}

// resetHWM restarts the process's VmHWM from its current resident set.
func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fleetPassResult is what the checks and the traced replay compare against:
// the first pass's predictions and its total untraced op time.
type fleetPassResult struct {
	predictions []float64
	totalMs     float64
}

// fleetPass builds a session over a copy of the preloaded fleet, warms it up
// with one op of each kind including the incremental store's anchor train
// (the pass's set-up time), and runs rounds timed rounds.
func fleetPass(fl *fleet, sc fleetScript, rounds int, out *outcome) (*fleetPassResult, error) {
	db := fl.base.Clone()
	ctx := context.Background()
	start := time.Now()
	sys, err := murphy.New(db, fleetOptions()...)
	if err != nil {
		return nil, err
	}
	if _, err := observe(db, fl.tail[0]); err != nil {
		return nil, err
	}
	sys.FindSymptoms(fl.apps[0])
	for _, q := range sc.questions[0] {
		if _, _, _, err := sys.WhatIfContext(ctx, fl.overrides(db, q), q.target, telemetry.MetricCPU); err != nil {
			return nil, fmt.Errorf("warm-up what-if: %w", err)
		}
	}
	out.setups = append(out.setups, time.Since(start).Seconds())

	res := &fleetPassResult{}
	for r := 0; r < rounds; r++ {
		round := time.Now()
		out.attempted++
		t0 := time.Now()
		if _, err := observe(db, fl.tail[1+r]); err != nil {
			out.fail(fmt.Sprintf("pass %d round %d ingest: %v", out.passes, r, err))
		}
		ingest := time.Since(t0)
		out.record("ingest", ingest)
		app := fl.apps[sc.questions[r][0].app]
		out.attempted++
		t0 = time.Now()
		sys.FindSymptoms(app)
		scan := time.Since(t0)
		out.record("scan", scan)
		var plan time.Duration
		for i, q := range sc.questions[r] {
			ovr := fl.overrides(db, q)
			out.attempted++
			t0 = time.Now()
			pred, _, ok, err := sys.WhatIfContext(ctx, ovr, q.target, telemetry.MetricCPU)
			el := time.Since(t0)
			plan += el
			if err != nil || !ok {
				out.fail(fmt.Sprintf("pass %d round %d what-if %d: reached=%v err=%v", out.passes, r, i, ok, err))
			}
			res.predictions = append(res.predictions, pred)
			kind := "whatif"
			if i > 0 {
				kind = "whatif_hit"
			}
			out.record(kind, el)
		}
		out.record("plan", plan)
		out.timed += time.Since(round)
		out.ops += 4
		res.totalMs += ms(ingest + scan + plan)
	}
	return res, nil
}

// checkFullTrain compares the first pass's store-path predictions at the
// checked rounds with a fresh full-train model's on the same data. It runs
// after the peak resident set is read, so its models do not count.
func checkFullTrain(fl *fleet, sc fleetScript, first *fleetPassResult, out *outcome) error {
	ctx := context.Background()
	db := fl.base.Clone()
	if _, err := observe(db, fl.tail[0]); err != nil {
		return err
	}
	for r := 0; r < len(first.predictions)/2; r++ {
		if _, err := observe(db, fl.tail[1+r]); err != nil {
			return err
		}
		if !sc.check[r] {
			continue
		}
		g, err := graph.Build(db, db.Entities(), -1)
		if err != nil {
			return err
		}
		m, err := core.TrainOpt(ctx, db, g, fleetConfig(), core.TrainOpts{Now: -1})
		if err != nil {
			out.fail(fmt.Sprintf("round %d full train: %v", r, err))
			continue
		}
		for i, q := range sc.questions[r] {
			full, _ := m.PredictUnderIntervention(fl.overrides(db, q), q.target, telemetry.MetricCPU, 0)
			pred := first.predictions[2*r+i]
			if d := math.Abs(full-pred) / math.Max(math.Abs(full), 1e-12); d > 1e-6 {
				out.fail(fmt.Sprintf("round %d what-if %d: store path %.12g vs full train %.12g (rel %.2e)", r, i, pred, full, d))
			}
		}
	}
	return nil
}

// fleetReplay replays the first pass layer by layer under the tracer:
// DB.Observe, Detector.ScanApp, and TrainOpt over a FactorStore followed by
// PredictUnderIntervention. It takes the same in-process path as the
// untraced pass, so the difference in op time is the tracing overhead, and
// its predictions must equal the untraced ones bit for bit.
func fleetReplay(fl *fleet, sc fleetScript, first *fleetPassResult, out *outcome) error {
	db := fl.base.Clone()
	ctx := context.Background()
	cfg := fleetConfig()
	tr := newTracer()
	var g *graph.Graph
	err := tr.op("setup", func() error {
		var err error
		tr.span("graph.build", func() { g, err = graph.Build(db, db.Entities(), -1) })
		return err
	})
	if err != nil {
		return err
	}
	store := core.NewFactorStore()
	det := anomaly.NewDetector()
	whatif := func(tr *tracer, q question, factors *int) (float64, error) {
		var (
			m   *core.Model
			err error
		)
		tr.span("core.train", func() { m, err = core.TrainOpt(ctx, db, g, cfg, core.TrainOpts{Now: -1, Store: store}) })
		if err != nil {
			return 0, err
		}
		*factors += m.NumFactors()
		ovr := fl.overrides(db, q)
		var pred float64
		tr.span("core.propagate", func() {
			pred, _ = m.PredictUnderIntervention(ovr, q.target, telemetry.MetricCPU, 0)
			m.CurrentValue(q.target, telemetry.MetricCPU)
		})
		return pred, nil
	}
	warm := newTracer()
	var factors, points, symptoms int
	if _, err := observe(db, fl.tail[0]); err != nil {
		return err
	}
	det.ScanApp(db, fl.apps[0], db.Len()-1)
	for _, q := range sc.questions[0] {
		if _, err := whatif(warm, q, &factors); err != nil {
			return err
		}
	}
	factors = 0
	before := store.Stats()
	rounds := len(first.predictions) / 2
	for r := 0; r < rounds; r++ {
		err := tr.op("ingest", func() error {
			var n int
			var err error
			tr.span("telemetry.observe", func() { n, err = observe(db, fl.tail[1+r]) })
			points += n
			return err
		})
		if err != nil {
			return err
		}
		app := fl.apps[sc.questions[r][0].app]
		tr.op("scan", func() error {
			tr.span("anomaly.scan", func() { symptoms += len(det.ScanApp(db, app, db.Len()-1)) })
			return nil
		})
		for i, q := range sc.questions[r] {
			kind := "whatif"
			if i > 0 {
				kind = "whatif_hit"
			}
			var pred float64
			err := tr.op(kind, func() error {
				var err error
				pred, err = whatif(tr, q, &factors)
				return err
			})
			if err != nil {
				return err
			}
			if want := first.predictions[2*r+i]; pred != want {
				out.fail(fmt.Sprintf("round %d what-if %d: traced prediction %.17g, untraced %.17g", r, i, pred, want))
			}
		}
	}
	after := store.Stats()

	s := tr.summary()
	L := out.layers
	L["graph.build_ms"] = s.meanMs("graph.build")
	if points > 0 {
		L["telemetry.observe_us_per_point"] = s.selfMs["telemetry.observe"] * 1000 / float64(points)
		L["telemetry.points"] = float64(points) / float64(s.ops["ingest"])
	}
	L["anomaly.scan_ms"] = s.meanMs("anomaly.scan")
	L["anomaly.symptoms"] = float64(symptoms) / float64(s.ops["scan"])
	L["core.train_ms"] = s.meanMs("core.train")
	L["core.factors_trained"] = float64(factors) / float64(s.count["core.train"])
	L["core.propagate_ms"] = s.meanMs("core.propagate")
	hits, refits := after.Hits-before.Hits, after.Refits-before.Refits
	L["core.store_hits"] = float64(hits)
	L["core.store_refits"] = float64(refits)
	L["core.store_reselects"] = float64(after.Reselects - before.Reselects)
	L["core.store_drift_trips"] = float64(after.DriftTrips - before.DriftTrips)
	if hits+refits > 0 {
		L["core.store_hit_ratio"] = float64(hits) / float64(hits+refits)
	}
	var tracedMs float64
	for _, kind := range []string{"ingest", "scan", "whatif", "whatif_hit"} {
		tracedMs += s.wallMs[kind]
	}
	L["trace.overhead_ratio"] = tracedMs/first.totalMs - 1
	s.unattributed(out)
	out.trace = tr
	return nil
}
