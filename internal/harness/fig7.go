package harness

import (
	"context"
	"fmt"
	"strings"

	"murphy/internal/core"
	"murphy/internal/evalx"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// Fig7Options parameterizes the microbenchmarks of §6.5: no-prior-incident
// accuracy, online vs offline training, and the training-length sweep.
type Fig7Options struct {
	// Scenarios per bar.
	Scenarios int
	// Steps is the emulation length per scenario.
	Steps int
	// Samples configures Murphy's Monte-Carlo sampling.
	Samples int
	// NTrains are the training-length bars (the paper uses 128/256/512).
	NTrains []int
	// Seed drives scenario generation.
	Seed int64
}

// DefaultFig7Options returns a fast configuration with the paper's bars.
func DefaultFig7Options() Fig7Options {
	return Fig7Options{Scenarios: 12, Steps: 620, Samples: 400, NTrains: []int{128, 256, 512}, Seed: 1}
}

// Fig7Result carries the bar values: top-5 recall per variant.
type Fig7Result struct {
	Opts Fig7Options
	// NoPriorIncidents is accuracy when the training window contains no
	// prior faults.
	NoPriorIncidents float64
	// TrainedOffline is accuracy when the training window ends before the
	// incident begins (maximum prior incidents for fairness, as in §6.5.1).
	TrainedOffline float64
	// OnFreshData is accuracy with standard online training.
	OnFreshData float64
	// ByNTrain maps training length to accuracy.
	ByNTrain map[int]float64
}

// RunFig7 measures Murphy's accuracy across the §6.5 training variants.
func RunFig7(opts Fig7Options) (*Fig7Result, error) {
	if opts.Scenarios <= 0 {
		return nil, fmt.Errorf("harness: need at least one scenario")
	}
	res := &Fig7Result{Opts: opts, ByNTrain: map[int]float64{}}

	run := func(prior int, offline bool, nTrain int) (float64, error) {
		var rankings [][]telemetry.EntityID
		var accepts []map[telemetry.EntityID]bool
		kinds := []microsim.FaultKind{microsim.FaultCPU, microsim.FaultMem, microsim.FaultDisk}
		for v := 0; v < opts.Scenarios; v++ {
			sc, err := microsim.Contention(microsim.ContentionOptions{
				Topo:           "hotel",
				Steps:          opts.Steps,
				PriorIncidents: prior,
				Kind:           kinds[v%len(kinds)],
				Intensity:      0.5,
				Seed:           opts.Seed + int64(v),
			})
			if err != nil {
				return 0, err
			}
			db := sc.Result.DB
			g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
			if err != nil {
				return 0, err
			}
			cfg := murphyConfig(opts.Samples, nTrain)
			var model *core.Model
			if offline {
				// Train strictly before the incident window; diagnose the
				// in-incident state by re-binding the model's endpoint.
				model, err = core.TrainOpt(context.Background(), db, g, cfg, core.TrainOpts{Now: sc.FaultStart - 1})
				if err != nil {
					return 0, err
				}
				model, err = model.Rebind(db.Len() - 1)
				if err != nil {
					return 0, err
				}
			} else {
				model, err = core.Train(db, g, cfg)
				if err != nil {
					return 0, err
				}
			}
			diag, err := model.Diagnose(sc.Symptom)
			if err != nil {
				return 0, err
			}
			rankings = append(rankings, diag.Ranked())
			accepts = append(accepts, evalx.AcceptSet([]telemetry.EntityID{sc.TruthEntity}, sc.Acceptable))
		}
		return evalx.TopKRecall(rankings, accepts, 5), nil
	}

	var err error
	if res.NoPriorIncidents, err = run(0, false, 280); err != nil {
		return nil, err
	}
	if res.TrainedOffline, err = run(14, true, 280); err != nil {
		return nil, err
	}
	if res.OnFreshData, err = run(14, false, 280); err != nil {
		return nil, err
	}
	for _, n := range opts.NTrains {
		acc, err := run(4, false, n)
		if err != nil {
			return nil, err
		}
		res.ByNTrain[n] = acc
	}
	return res, nil
}

// String prints the Fig 7 bars.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 7 — Murphy microbenchmarks (top-5 recall)\n")
	fmt.Fprintf(&b, "  %-24s %.2f\n", "no prior incidents", r.NoPriorIncidents)
	fmt.Fprintf(&b, "  %-24s %.2f\n", "trained offline", r.TrainedOffline)
	fmt.Fprintf(&b, "  %-24s %.2f\n", "on fresh data (online)", r.OnFreshData)
	for _, n := range r.Opts.NTrains {
		fmt.Fprintf(&b, "  ntrain = %-15d %.2f\n", n, r.ByNTrain[n])
	}
	return b.String()
}
