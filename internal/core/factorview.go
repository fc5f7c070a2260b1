package core

import (
	"fmt"
	"math"
	"slices"

	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// factorView is a read-only view of one trained factor's learned
// parameters, the unit CompareFactors compares; diagnosis code never needs
// it.
type factorView struct {
	// features lists the selected neighbor metrics ("entity/metric"), in
	// ranking order.
	features []string
	// coef/featMean/featStd/intercept/residualStd are the ridge model's
	// learned terms (standardized-feature coefficients). Empty/zero when the
	// factor's model is not the default ridge.
	coef, featMean, featStd []float64
	intercept, residualStd  float64
	// hmean/hstd/med/madScale/rscore/novel are the factor's historical and
	// robust statistics over the training window.
	hmean, hstd, med, madScale, rscore float64
	novel                              bool
}

// factorView returns the learned parameters of the (id, metric) factor, or
// ok=false when no such factor was trained.
func (m *Model) factorView(id telemetry.EntityID, metric string) (factorView, bool) {
	f, _ := m.factorOf(id, metric)
	if f == nil {
		return factorView{}, false
	}
	return m.viewOf(f), true
}

func (m *Model) viewOf(f *factor) factorView {
	v := factorView{
		hmean: f.hmean, hstd: f.hstd,
		med: f.med, madScale: f.madScale,
		rscore: f.rscore, novel: f.novel,
	}
	for _, fs := range f.features {
		v.features = append(v.features, m.idx.keys[fs])
	}
	if r, ok := f.model.(*regress.Ridge); ok {
		if coef, mean, std, intercept, fitted := r.LinearTerms(); fitted {
			v.coef, v.featMean, v.featStd = coef, mean, std
			v.intercept = intercept
			v.residualStd = r.ResidualStd()
		}
	}
	return v
}

// FactorDiff is how far one model's factors lie from another's.
type FactorDiff struct {
	// Factors counts the trained factors compared.
	Factors int
	// Worst is the largest relative difference |a−b|/max(1,|a|) of any
	// learned parameter (a from the reference model): the ridge terms and
	// the robust statistics. It is +Inf when a parameter is NaN on one side
	// only; NaN on both sides counts as equal.
	Worst float64
	// At names the parameter that gave Worst ("entity/metric coef[2]"),
	// empty while Worst is 0.
	At string
}

// CompareFactors compares got's factors with the reference want's, parameter
// by parameter: it is the check that holds the incremental trainer's slid
// factors to a fresh fit. It fails when the models lay out different series,
// a factor is trained on one side only, a factor's selected features or
// their order differ, or its novelty flag differs; everything else is
// measured in the returned FactorDiff.
func CompareFactors(want, got *Model) (FactorDiff, error) {
	if !slices.Equal(want.idx.refs, got.idx.refs) {
		return FactorDiff{}, fmt.Errorf("core: models lay out different series (%d vs %d)", len(want.idx.refs), len(got.idx.refs))
	}
	var d FactorDiff
	for slot, key := range want.idx.keys {
		fw, fg := want.factors[slot], got.factors[slot]
		if (fw == nil) != (fg == nil) {
			return FactorDiff{}, fmt.Errorf("core: factor %s trained on one side only (want %v, got %v)", key, fw != nil, fg != nil)
		}
		if fw == nil {
			continue
		}
		d.Factors++
		w, g := want.viewOf(fw), got.viewOf(fg)
		if !slices.Equal(w.features, g.features) {
			return FactorDiff{}, fmt.Errorf("core: factor %s selected features %v, want %v", key, g.features, w.features)
		}
		if w.novel != g.novel {
			return FactorDiff{}, fmt.Errorf("core: factor %s novel = %v, want %v", key, g.novel, w.novel)
		}
		if len(w.coef) != len(g.coef) {
			return FactorDiff{}, fmt.Errorf("core: factor %s has %d ridge terms, want %d", key, len(g.coef), len(w.coef))
		}
		worse := func(name string, a, b float64) {
			if r := relDiff(a, b); r > d.Worst {
				d.Worst, d.At = r, key+" "+name
			}
		}
		worse("intercept", w.intercept, g.intercept)
		worse("residual-std", w.residualStd, g.residualStd)
		for i := range w.coef {
			worse(fmt.Sprintf("coef[%d]", i), w.coef[i], g.coef[i])
			worse(fmt.Sprintf("feat-mean[%d]", i), w.featMean[i], g.featMean[i])
			worse(fmt.Sprintf("feat-std[%d]", i), w.featStd[i], g.featStd[i])
		}
		worse("hmean", w.hmean, g.hmean)
		worse("hstd", w.hstd, g.hstd)
		worse("median", w.med, g.med)
		worse("mad-scale", w.madScale, g.madScale)
		worse("rscore", w.rscore, g.rscore)
	}
	return d, nil
}

// relDiff is |a−b| scaled by max(1, |a|), so tiny parameters compare
// absolutely and large ones relatively. Equal values (NaN on both sides
// included) give 0; a NaN or infinity the other side does not share gives
// +Inf.
func relDiff(a, b float64) float64 {
	switch {
	case a == b || math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0):
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Max(1, math.Abs(a))
}
