package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// TrainScaleOptions parameterizes the parallel train-and-sample scaling
// experiment: end-to-end Diagnose wall time on the Table-2 contention
// workload across training/inference worker counts and Gibbs chain counts.
type TrainScaleOptions struct {
	// Scenarios is the number of contention incidents.
	Scenarios int
	// Steps is the emulation length per scenario.
	Steps int
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
	// Workers are the worker counts to sweep; each point runs the training
	// pool, the DiagnoseParallel fan-out, and GOMAXPROCS at that count.
	Workers []int
	// Chains are the Gibbs chain counts to sweep (at the largest worker
	// count): each counterfactual test's draws split across this many
	// independently seeded chains.
	Chains []int
	// Seed drives scenario generation.
	Seed int64
}

// DefaultTrainScaleOptions returns the sweep the EXPERIMENTS table reports:
// workers 1/2/4/8 and chains 1/2/4.
func DefaultTrainScaleOptions() TrainScaleOptions {
	return TrainScaleOptions{
		Scenarios: 2, Steps: 300, Samples: 2000, TrainWindow: 280,
		Workers: []int{1, 2, 4, 8}, Chains: []int{1, 2, 4}, Seed: 1,
	}
}

// TrainScalePoint is one measured (workers, chains) configuration, summed
// over all scenarios.
type TrainScalePoint struct {
	// Workers is the training-pool and candidate fan-out width; Chains is
	// the per-test Gibbs chain count.
	Workers, Chains int
	// TrainTime / DiagTime are total wall times across scenarios.
	TrainTime, DiagTime time.Duration
	// Speedup is the serial baseline's end-to-end (train+diagnose) wall time
	// divided by this point's.
	Speedup float64
	// SamplesPerSec is the Monte-Carlo draw throughput during inference.
	SamplesPerSec float64
	// RankingsIdentical reports whether every diagnosis certified the same
	// ranked entities as the serial (workers=1, chains=1) baseline.
	RankingsIdentical bool
	// BitIdentical reports whether every verdict (p-value, effect, score)
	// is bit-equal to the workers=1 run at the same chain count — the
	// determinism contract: worker count must never change bits; chain
	// count is allowed to (different RNG streams).
	BitIdentical bool
}

// TrainScaleResult carries the scaling sweep.
type TrainScaleResult struct {
	Opts TrainScaleOptions
	// HostProcs is runtime.NumCPU of the measuring host — scaling headroom
	// is bounded by it no matter what GOMAXPROCS is set to.
	HostProcs int
	// Baseline is the serial point (workers=1, chains=1).
	Baseline TrainScalePoint
	// Points are the swept configurations, serial baseline first.
	Points []TrainScalePoint
}

// RunTrainScale measures end-to-end Diagnose wall time across worker and
// chain counts on the Table-2 contention workload. For every configuration it
// also verifies the engine's determinism contract against the serial run:
// certified rankings must match at every point, and verdicts must be
// bit-identical across worker counts at a fixed chain count.
func RunTrainScale(opts TrainScaleOptions) (*TrainScaleResult, error) {
	if opts.Scenarios <= 0 {
		return nil, fmt.Errorf("harness: need at least one scenario")
	}
	if len(opts.Workers) == 0 {
		opts.Workers = []int{1}
	}
	if len(opts.Chains) == 0 {
		opts.Chains = []int{1}
	}
	// Build every scenario once; all configurations diagnose the same data.
	type scenario struct {
		db  *telemetry.DB
		g   *graph.Graph
		sym telemetry.Symptom
	}
	var scs []scenario
	kinds := []microsim.FaultKind{microsim.FaultCPU, microsim.FaultMem, microsim.FaultDisk}
	for v := 0; v < opts.Scenarios; v++ {
		sc, err := microsim.Contention(microsim.ContentionOptions{
			Topo: "hotel", Steps: opts.Steps, PriorIncidents: 4,
			Kind: kinds[v%len(kinds)], Intensity: 0.5, Seed: opts.Seed + int64(v),
		})
		if err != nil {
			return nil, err
		}
		g, err := graph.Build(sc.Result.DB, []telemetry.EntityID{sc.Symptom.Entity}, -1)
		if err != nil {
			return nil, err
		}
		scs = append(scs, scenario{db: sc.Result.DB, g: g, sym: sc.Symptom})
	}

	oldProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(oldProcs)

	// runPoint diagnoses every scenario at one (workers, chains) setting.
	runPoint := func(workers, chains int) (*TrainScalePoint, []*core.Diagnosis, error) {
		procs := workers
		if chains > procs {
			procs = chains
		}
		runtime.GOMAXPROCS(procs)
		rec := obs.New()
		rec.Enable()
		p := &TrainScalePoint{Workers: workers, Chains: chains}
		var diags []*core.Diagnosis
		for _, sc := range scs {
			cfg := murphyConfig(opts.Samples, opts.TrainWindow)
			cfg.Sampler.Chains = chains
			t0 := time.Now()
			model, err := core.TrainOpt(context.Background(), sc.db, sc.g, cfg,
				core.TrainOpts{Now: -1, Workers: workers, Obs: rec})
			if err != nil {
				return nil, nil, err
			}
			p.TrainTime += time.Since(t0)
			t0 = time.Now()
			diag, err := model.DiagnoseParallel(sc.sym, workers)
			if err != nil {
				return nil, nil, err
			}
			p.DiagTime += time.Since(t0)
			diags = append(diags, diag)
		}
		if secs := p.DiagTime.Seconds(); secs > 0 {
			p.SamplesPerSec = float64(rec.Counter(obs.CtrGibbsSamples)) / secs
		}
		return p, diags, nil
	}

	res := &TrainScaleResult{Opts: opts, HostProcs: runtime.NumCPU()}
	base, baseDiags, err := runPoint(1, 1)
	if err != nil {
		return nil, err
	}
	base.Speedup = 1
	base.RankingsIdentical, base.BitIdentical = true, true
	res.Baseline = *base
	res.Points = append(res.Points, *base)
	baseWall := base.TrainTime + base.DiagTime

	// serialByChains[c] holds the workers=1 diagnoses at chain count c — the
	// bit-identity reference for every wider worker count.
	serialByChains := map[int][]*core.Diagnosis{1: baseDiags}
	for _, c := range opts.Chains {
		for _, w := range opts.Workers {
			if w == 1 && c == 1 {
				continue // the baseline, already recorded
			}
			p, diags, err := runPoint(w, c)
			if err != nil {
				return nil, err
			}
			if wall := p.TrainTime + p.DiagTime; wall > 0 {
				p.Speedup = float64(baseWall) / float64(wall)
			}
			ref, ok := serialByChains[c]
			if !ok {
				// First run at this chain count becomes the reference (the
				// sweep starts each chain count at the smallest worker count).
				serialByChains[c] = diags
				ref = diags
			}
			p.RankingsIdentical, p.BitIdentical = true, true
			for i, d := range diags {
				if !sameCauses(ref[i], d) {
					p.BitIdentical = false
				}
				if !sameRankedEntities(baseDiags[i], d) {
					p.RankingsIdentical = false
				}
			}
			res.Points = append(res.Points, *p)
		}
	}
	return res, nil
}

// sameRankedEntities reports whether two diagnoses certified the same ranked
// entity list (ignoring p-values/effects, which legitimately differ across
// chain counts).
func sameRankedEntities(a, b *core.Diagnosis) bool {
	if len(a.Causes) != len(b.Causes) {
		return false
	}
	for i := range a.Causes {
		if a.Causes[i].Entity != b.Causes[i].Entity {
			return false
		}
	}
	return true
}

// String prints the scaling table.
func (r *TrainScaleResult) String() string {
	var b strings.Builder
	b.WriteString("parallel train-and-sample scaling — Table-2 contention workload\n")
	fmt.Fprintf(&b, "  workload: %d scenarios, %d samples, window %d; host CPUs: %d\n",
		r.Opts.Scenarios, r.Opts.Samples, r.Opts.TrainWindow, r.HostProcs)
	fmt.Fprintf(&b, "  %7s %6s %10s %10s %8s %12s %9s %8s\n",
		"workers", "chains", "train", "diagnose", "speedup", "samples/s", "rankings", "bits")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %7d %6d %10s %10s %7.2fx %12.0f %9v %8v\n",
			p.Workers, p.Chains,
			p.TrainTime.Round(time.Millisecond), p.DiagTime.Round(time.Millisecond),
			p.Speedup, p.SamplesPerSec, p.RankingsIdentical, p.BitIdentical)
	}
	return b.String()
}
