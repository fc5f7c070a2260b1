package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"murphy/internal/degrade"
	"murphy/internal/evalx"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// Degradations are Table 2's corruption columns, in table order.
var Degradations = []string{"missing-values", "missing-edge", "missing-entity", "missing-metric", "unchanged"}

// Table2Options parameterizes the robustness experiment (§6.4), run on the
// cycle-free contention setup so Sage can participate.
type Table2Options struct {
	// Scenarios is the number of contention scenarios per degradation.
	Scenarios int
	// Steps is the emulation length per scenario.
	Steps int
	// Samples / TrainWindow configure Murphy.
	Samples, TrainWindow int
	// Seed drives scenario generation and corruption choices.
	Seed int64
}

// DefaultTable2Options returns a fast configuration.
func DefaultTable2Options() Table2Options {
	return Table2Options{Scenarios: 12, Steps: 300, Samples: 400, TrainWindow: 280, Seed: 1}
}

// Table2Result carries the top-5 recall per scheme per degradation.
type Table2Result struct {
	Opts Table2Options
	// Recall[scheme][degradation] is top-5 recall.
	Recall map[string]map[string]float64
	// Aggregate[scheme] averages the four degraded columns.
	Aggregate map[string]float64
}

// RunTable2 applies each Table 2 corruption to fresh contention scenarios
// and measures each scheme's top-5 recall.
func RunTable2(opts Table2Options) (*Table2Result, error) {
	if opts.Scenarios <= 0 {
		return nil, fmt.Errorf("harness: need at least one scenario")
	}
	cfg := murphyConfig(opts.Samples, opts.TrainWindow)
	res := &Table2Result{
		Opts:      opts,
		Recall:    map[string]map[string]float64{},
		Aggregate: map[string]float64{},
	}
	for _, s := range Schemes {
		res.Recall[s] = map[string]float64{}
	}
	for _, deg := range Degradations {
		rankings := map[string][][]telemetry.EntityID{}
		var accepts []map[telemetry.EntityID]bool
		for v := 0; v < opts.Scenarios; v++ {
			// The fixture's graph is dropped: schemeRankings grows its own
			// from the corrupted telemetry.
			sc, _, err := hotelContention(opts.Steps, opts.Seed, v)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(opts.Seed*1000 + int64(v)))
			if err := corrupt(sc, deg, rng); err != nil {
				return nil, err
			}
			rs, err := schemeRankings(sc, cfg)
			if err != nil {
				return nil, err
			}
			accepts = append(accepts, evalx.AcceptSet([]telemetry.EntityID{sc.TruthEntity}, sc.Acceptable))
			for _, s := range Schemes {
				rankings[s] = append(rankings[s], rs[s])
			}
		}
		for _, s := range Schemes {
			res.Recall[s][deg] = evalx.TopKRecall(rankings[s], accepts, 5)
		}
	}
	for _, s := range Schemes {
		agg := 0.0
		for _, deg := range Degradations[:4] {
			agg += res.Recall[s][deg]
		}
		res.Aggregate[s] = agg / 4
	}
	return res, nil
}

// corrupt applies one Table 2 degradation in place to the scenario's DB.
func corrupt(sc *microsim.Scenario, deg string, rng *rand.Rand) error {
	db := sc.Result.DB
	prot := degrade.Protected{sc.Symptom.Entity: true, sc.TruthEntity: true}
	for _, id := range sc.Acceptable {
		prot[id] = true
	}
	switch deg {
	case "unchanged":
		return nil
	case "missing-edge":
		c, pair, err := degrade.MissingEdge(db, prot, rng)
		if err != nil {
			return err
		}
		sc.Result.DB = c
		// Drop the same edge from Sage's call DAG if it appears there.
		var kept [][2]telemetry.EntityID
		for _, e := range sc.CallDAG {
			if (e[0] == pair[0] && e[1] == pair[1]) || (e[0] == pair[1] && e[1] == pair[0]) {
				continue
			}
			kept = append(kept, e)
		}
		sc.CallDAG = kept
	case "missing-entity":
		c, victim, err := degrade.MissingEntity(db, prot, rng)
		if err != nil {
			return err
		}
		sc.Result.DB = c
		var kept [][2]telemetry.EntityID
		for _, e := range sc.CallDAG {
			if e[0] == victim || e[1] == victim {
				continue
			}
			kept = append(kept, e)
		}
		sc.CallDAG = kept
	case "missing-metric":
		c, _, err := degrade.MissingMetric(db, sc.TruthEntity, rng)
		if err != nil {
			return err
		}
		sc.Result.DB = c
	case "missing-values":
		c, _, err := degrade.MissingValues(db, 0.25, sc.FaultStart, rng)
		// A draw that selects no victims is not a corrupted run; redraw
		// rather than scoring a pristine copy as a robustness pass. The rng
		// advances every call, so this terminates (and in practice a 25%
		// fraction over dozens of entities virtually never misses twice).
		for attempts := 0; errors.Is(err, degrade.ErrNoneSelected) && attempts < 100; attempts++ {
			c, _, err = degrade.MissingValues(db, 0.25, sc.FaultStart, rng)
		}
		if err != nil {
			return err
		}
		sc.Result.DB = c
	default:
		return fmt.Errorf("harness: unknown degradation %q", deg)
	}
	return nil
}

// String prints Table 2.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2 — robustness: top-5 recall under degraded data\n")
	fmt.Fprintf(&b, "  %-10s", "scheme")
	for _, deg := range Degradations {
		fmt.Fprintf(&b, " %15s", deg)
	}
	fmt.Fprintf(&b, " %10s\n", "aggregate")
	for _, s := range Schemes {
		fmt.Fprintf(&b, "  %-10s", s)
		for _, deg := range Degradations {
			fmt.Fprintf(&b, " %15.2f", r.Recall[s][deg])
		}
		fmt.Fprintf(&b, " %10.2f\n", r.Aggregate[s])
	}
	return b.String()
}
