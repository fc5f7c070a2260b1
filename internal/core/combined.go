package core

import (
	"context"
	"fmt"
	"slices"

	"murphy/internal/graph"
	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// combinedPredictor blends a stale offline model with a fresh online model,
// weighting the online one by how much in-incident data it has seen. It is
// the §7 "Leveraging offline training" extension: offline training can use a
// much longer window, while online training knows the incident's pattern.
type combinedPredictor struct {
	offline, online regress.Predictor
	wOnline         float64
}

func (c *combinedPredictor) Fit([][]float64, []float64) error {
	return fmt.Errorf("core: combined predictor is assembled, not fitted")
}

func (c *combinedPredictor) Predict(x []float64) float64 {
	return c.wOnline*c.online.Predict(x) + (1-c.wOnline)*c.offline.Predict(x)
}

func (c *combinedPredictor) ResidualStd() float64 {
	// Conservative: the larger of the two (the blend cannot be more certain
	// than its sharper component on data neither has seen).
	a, b := c.offline.ResidualStd(), c.online.ResidualStd()
	if a > b {
		return a
	}
	return b
}

// TrainCombined fits two MRFs — one offline on the long window ending at
// offlineEnd (exclusive of the incident) and one online on the trailing
// window — and blends their factors with weight wOnline on the online model.
// The returned model carries the online model's current state and anomaly
// scores, so ranking and pruning reflect the incident.
func TrainCombined(db *telemetry.DB, g *graph.Graph, cfg Config, offlineEnd int, offlineWindow int, wOnline float64) (*Model, error) {
	if wOnline < 0 || wOnline > 1 {
		return nil, fmt.Errorf("core: online weight %v outside [0,1]", wOnline)
	}
	if offlineEnd < 0 {
		// TrainOpt would read a negative endpoint as "the last slice".
		return nil, fmt.Errorf("core: offline endpoint %d outside timeline [0,%d)", offlineEnd, db.Len())
	}
	offCfg := cfg
	offCfg.TrainWindow = offlineWindow
	offline, err := TrainOpt(context.Background(), db, g, offCfg, TrainOpts{Now: offlineEnd})
	if err != nil {
		return nil, fmt.Errorf("core: offline half: %w", err)
	}
	online, err := Train(db, g, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: online half: %w", err)
	}
	for s, of := range online.factors {
		ref := online.idx.refs[s]
		if off, _ := offline.factorOf(ref.entity, ref.metric); off != nil && sameFeatures(online.idx, of, offline.idx, off) {
			of.model = &combinedPredictor{offline: off.model, online: of.model, wOnline: wOnline}
		}
		// When the two halves selected different features (the topology or
		// workload changed between the windows — the very staleness §6.5.1
		// warns about), the online factor stands alone.
	}
	return online, nil
}

// sameFeatures reports whether factor a (under index ax) and factor b
// (under bx) selected the same features in the same order.
func sameFeatures(ax *seriesIndex, a *factor, bx *seriesIndex, b *factor) bool {
	return slices.EqualFunc(a.features, b.features, func(fa, fb int32) bool {
		return ax.refs[fa] == bx.refs[fb]
	})
}
