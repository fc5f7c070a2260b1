package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"murphy/internal/core"
	"murphy/internal/obs"
)

// ObsOverheadOptions parameterizes the instrumentation-overhead A/B: the
// Table-2 contention workload diagnosed with the obs layer disabled versus
// enabled, same seeds and configuration.
type ObsOverheadOptions struct {
	// Scenarios is the number of contention incidents.
	Scenarios int
	// Steps is the emulation length per scenario.
	Steps int
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
	// Rounds is how many times each incident is diagnosed per arm.
	Rounds int
	// Seed drives scenario generation.
	Seed int64
}

// DefaultObsOverheadOptions returns the configuration the overhead numbers
// in EXPERIMENTS.md are stated against.
func DefaultObsOverheadOptions() ObsOverheadOptions {
	return ObsOverheadOptions{Scenarios: 3, Steps: 300, Samples: 2000, TrainWindow: 280, Rounds: 3, Seed: 1}
}

// ObsOverheadResult carries the A/B timings and the enabled run's snapshot.
type ObsOverheadResult struct {
	Opts ObsOverheadOptions
	// Diagnoses is Scenarios * Rounds (per arm).
	Diagnoses int
	// OffTime / OnTime are total train+diagnose wall times with the
	// instrumentation layer disabled / enabled.
	OffTime, OnTime time.Duration
	// DeltaPct is (OnTime-OffTime)/OffTime in percent (negative when the
	// enabled run happened to be faster — the true overhead is within
	// measurement noise).
	DeltaPct float64
	// Stats is the enabled arm's accumulated instrumentation, whose
	// breakdown table String renders.
	Stats obs.Snapshot
}

// RunObsOverhead measures what the obs layer costs when enabled, and shows
// the per-stage breakdown it buys. The disabled arm exercises the same
// instrumented code paths with a disabled recorder — the production
// configuration whose overhead the ≤2% budget bounds.
func RunObsOverhead(opts ObsOverheadOptions) (*ObsOverheadResult, error) {
	if opts.Scenarios <= 0 || opts.Rounds <= 0 {
		return nil, fmt.Errorf("harness: need at least one scenario and round")
	}
	cfg := murphyConfig(opts.Samples, opts.TrainWindow)
	res := &ObsOverheadResult{Opts: opts}
	rec := obs.New()
	for v := 0; v < opts.Scenarios; v++ {
		sc, g, err := hotelContention(opts.Steps, opts.Seed, v)
		if err != nil {
			return nil, err
		}
		db := sc.Result.DB
		run := func() (time.Duration, error) {
			t0 := time.Now()
			for r := 0; r < opts.Rounds; r++ {
				model, err := core.TrainOpt(context.Background(), db, g, cfg, core.TrainOpts{Now: -1, Obs: rec})
				if err != nil {
					return 0, err
				}
				if _, err := model.Diagnose(sc.Symptom); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		}
		// Interleave the arms per scenario so thermal/cache drift hits both.
		rec.Disable()
		dt, err := run()
		if err != nil {
			return nil, err
		}
		res.OffTime += dt
		rec.Enable()
		dt, err = run()
		if err != nil {
			return nil, err
		}
		res.OnTime += dt
		res.Diagnoses += opts.Rounds
	}
	if res.OffTime > 0 {
		res.DeltaPct = 100 * float64(res.OnTime-res.OffTime) / float64(res.OffTime)
	}
	res.Stats = rec.Snapshot()
	return res, nil
}

// String prints the overhead A/B and the stage breakdown the enabled layer
// produced.
func (r *ObsOverheadResult) String() string {
	var b strings.Builder
	b.WriteString("observability overhead — obs layer disabled vs enabled\n")
	fmt.Fprintf(&b, "  workload: %d contention scenarios × %d diagnoses, %d samples\n",
		r.Opts.Scenarios, r.Opts.Rounds, r.Opts.Samples)
	fmt.Fprintf(&b, "  %-28s %12s\n", "instrumentation disabled", r.OffTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-28s %12s\n", "instrumentation enabled", r.OnTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  delta %+.1f%%\n", r.DeltaPct)
	b.WriteString("  stage breakdown (enabled arm):\n")
	b.WriteString(r.Stats.Table())
	return b.String()
}
