// Package regress implements the metric-prediction models Murphy evaluates
// for its per-entity MRF factors (§6.6.1, Fig 8a): ridge regression (the
// model Murphy ships with), ordinary least squares, a Gaussian mixture model
// fitted by EM, a small multi-layer-perceptron neural network, and a linear
// support-vector regressor trained by subgradient descent. All models share
// the Predictor interface so the MRF core can swap them freely.
package regress

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"murphy/internal/mat"
	"murphy/internal/stats"
)

// Predictor is a trained model for one target metric given a feature vector
// of neighbor metrics in the same time slice.
type Predictor interface {
	// Fit trains the model on feature columns (cols[j][i] is feature j at
	// time slice i) and target y, the layout the training windows are held
	// in. Implementations must record the residual standard deviation.
	Fit(cols [][]float64, y []float64) error
	// Predict returns the model mean for one feature vector.
	Predict(x []float64) float64
	// ResidualStd returns the standard deviation of the training residuals;
	// the Gibbs sampler uses it as the noise scale when resampling.
	ResidualStd() float64
}

// Trainer constructs a fresh, untrained Predictor. The MRF core holds a
// Trainer so every entity factor gets its own model instance.
type Trainer func() Predictor

// ErrNoData is returned by Fit when the training set is empty or degenerate.
var ErrNoData = errors.New("regress: no training data")

// checkShape rejects an empty target and a feature column whose length is
// not the target's.
func checkShape(cols [][]float64, y []float64) error {
	if len(y) == 0 {
		return ErrNoData
	}
	for j, c := range cols {
		if len(c) != len(y) {
			return fmt.Errorf("regress: feature column %d has %d slices, want %d", j, len(c), len(y))
		}
	}
	return nil
}

// residualStd is the RMS training residual of pred, which is handed one
// scratch row per slice, filled from the columns.
func residualStd(pred func([]float64) float64, cols [][]float64, y []float64) float64 {
	row := make([]float64, len(cols))
	ss := 0.0
	for i := range y {
		for j, c := range cols {
			row[j] = c[i]
		}
		d := y[i] - pred(row)
		ss += d * d
	}
	s := math.Sqrt(ss / float64(len(y)))
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	return s
}

// standardize returns what the SGD-trained models fit on: the feature means
// and stds (a constant feature gets std 1), the target's mean and std
// (likewise), and the standardized rows and target.
func standardize(cols [][]float64, y []float64) (mean, std []float64, ymean, ystd float64, zx [][]float64, zy []float64) {
	mean = make([]float64, len(cols))
	std = make([]float64, len(cols))
	for j, c := range cols {
		mean[j], std[j] = stats.MeanStd(c)
		if std[j] == 0 {
			std[j] = 1
		}
	}
	ymean, ystd = stats.MeanStd(y)
	if ystd == 0 {
		ystd = 1
	}
	zx = make([][]float64, len(y))
	zy = make([]float64, len(y))
	for i := range y {
		zx[i] = make([]float64, len(cols))
		for j, c := range cols {
			zx[i][j] = (c[i] - mean[j]) / std[j]
		}
		zy[i] = (y[i] - ymean) / ystd
	}
	return mean, std, ymean, ystd, zx, zy
}

// ---------------------------------------------------------------------------
// Ridge regression

// Ridge is ridge (L2-regularized) linear regression with feature
// standardization. It is the model the paper selected for production use.
type Ridge struct {
	// Lambda is the L2 penalty; zero yields ordinary least squares.
	Lambda float64

	coef      []float64 // per standardized feature
	intercept float64
	featMean  []float64
	featStd   []float64
	resid     float64
	fitted    bool
}

// NewRidge returns an untrained ridge model with the given penalty.
func NewRidge(lambda float64) *Ridge { return &Ridge{Lambda: lambda} }

// RidgeTrainer returns a Trainer producing ridge models with penalty lambda.
func RidgeTrainer(lambda float64) Trainer {
	return func() Predictor { return NewRidge(lambda) }
}

// OLSTrainer returns a Trainer producing ordinary-least-squares models
// (ridge with a vanishing penalty kept for numerical stability).
func OLSTrainer() Trainer {
	return func() Predictor { return NewRidge(1e-8) }
}

// Fit solves (Z'Z + lambda I) b = Z'y on standardized features Z, built
// column by column: the Gram and Z'y accumulations run the blocked column
// kernels in internal/mat.
func (r *Ridge) Fit(cols [][]float64, y []float64) error {
	if err := checkShape(cols, y); err != nil {
		return err
	}
	n, nFeat := len(y), len(cols)
	if nFeat == 0 {
		// Intercept-only model.
		r.intercept = stats.Mean(y)
		r.coef = nil
		r.featMean, r.featStd = nil, nil
		r.resid = stats.StdDev(y)
		r.fitted = true
		return nil
	}
	// Standardize features; constant features get std 1 so they contribute 0.
	r.featMean = make([]float64, nFeat)
	r.featStd = make([]float64, nFeat)
	for j, c := range cols {
		m, s := stats.MeanStd(c)
		if s == 0 || math.IsNaN(s) {
			s = 1
		}
		r.featMean[j], r.featStd[j] = m, s
	}
	ymean := stats.Mean(y)
	zcols := make([][]float64, nFeat)
	for j, c := range cols {
		zc := make([]float64, n)
		m, s := r.featMean[j], r.featStd[j]
		for i, v := range c {
			zc[i] = (v - m) / s
		}
		zcols[j] = zc
	}
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - ymean
	}
	g := mat.GramCols(zcols).AddDiag(r.Lambda + 1e-10)
	zty := mat.MulVecCols(zcols, yc)
	coef, err := mat.CholeskySolve(g, zty)
	if err != nil {
		coef, err = mat.Solve(g, zty)
		if err != nil {
			return fmt.Errorf("regress: ridge solve: %w", err)
		}
	}
	r.coef = coef
	r.intercept = ymean
	r.fitted = true
	// Residuals: Predict's arithmetic, inlined over the columns because every
	// factor of a full train comes through here.
	ss := 0.0
	for i := 0; i < n; i++ {
		p := r.intercept
		for j := 0; j < nFeat; j++ {
			p += r.coef[j] * (cols[j][i] - r.featMean[j]) / r.featStd[j]
		}
		d := y[i] - p
		ss += d * d
	}
	s := math.Sqrt(ss / float64(n))
	if math.IsNaN(s) || math.IsInf(s, 0) {
		s = 0
	}
	r.resid = s
	return nil
}

// Predict returns the ridge mean for one feature vector. An untrained model
// predicts 0; a feature-count mismatch uses only the overlapping prefix, so
// degraded inputs (Table 2) degrade gracefully instead of panicking.
func (r *Ridge) Predict(x []float64) float64 {
	if !r.fitted {
		return 0
	}
	p := r.intercept
	n := len(r.coef)
	if len(x) < n {
		n = len(x)
	}
	for j := 0; j < n; j++ {
		p += r.coef[j] * (x[j] - r.featMean[j]) / r.featStd[j]
	}
	return p
}

// LinearTerms exposes the fitted standardized linear form,
//
//	ŷ = intercept + Σ_j coef[j]·(x[j]−mean[j])/std[j],
//
// so the batched sampling kernel can apply the model slice-at-a-time over
// whole chain vectors instead of calling Predict per sample. ok is false
// until Fit has run. The returned slices are the model's own backing arrays:
// callers must treat them as read-only.
func (r *Ridge) LinearTerms() (coef, mean, std []float64, intercept float64, ok bool) {
	return r.coef, r.featMean, r.featStd, r.intercept, r.fitted
}

// ResidualStd returns the training residual standard deviation.
func (r *Ridge) ResidualStd() float64 { return r.resid }

// ---------------------------------------------------------------------------
// Gaussian mixture model

// GMM models the joint density of (features, target) as a mixture of
// axis-aligned Gaussians fitted by EM, and predicts the target by the
// mixture-weighted conditional mean.
type GMM struct {
	// K is the number of mixture components.
	K int
	// Iters is the number of EM iterations.
	Iters int
	// Seed makes component initialization deterministic.
	Seed int64

	dim     int // features + 1 (target is the last dimension)
	weights []float64
	means   [][]float64
	vars    [][]float64
	resid   float64
	fitted  bool
	ymean   float64
}

// NewGMM returns an untrained GMM with k components.
func NewGMM(k int, seed int64) *GMM { return &GMM{K: k, Iters: 30, Seed: seed} }

// GMMTrainer returns a Trainer producing k-component GMMs.
func GMMTrainer(k int, seed int64) Trainer {
	return func() Predictor { return NewGMM(k, seed) }
}

// Fit runs EM on the joint (features, target) sample.
func (g *GMM) Fit(cols [][]float64, y []float64) error {
	if err := checkShape(cols, y); err != nil {
		return err
	}
	n, nFeat := len(y), len(cols)
	g.dim = nFeat + 1
	k := g.K
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// dims are the joint sample's columns: the features, then the target.
	dims := append(cols[:nFeat:nFeat], y)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, g.dim)
		for d, c := range dims {
			pts[i][d] = c[i]
		}
	}
	g.ymean = stats.Mean(y)
	rng := rand.New(rand.NewSource(g.Seed))
	// Initialize means at random points, variances at global variance.
	gvar := make([]float64, g.dim)
	for d, c := range dims {
		gvar[d] = stats.Variance(c)
		if gvar[d] < 1e-6 {
			gvar[d] = 1e-6
		}
	}
	g.weights = make([]float64, k)
	g.means = make([][]float64, k)
	g.vars = make([][]float64, k)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		g.weights[c] = 1 / float64(k)
		g.means[c] = append([]float64(nil), pts[perm[c]]...)
		g.vars[c] = append([]float64(nil), gvar...)
	}
	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	for iter := 0; iter < g.Iters; iter++ {
		// E step: responsibilities via log densities.
		for i, p := range pts {
			maxLog := math.Inf(-1)
			logs := resp[i]
			for c := 0; c < k; c++ {
				logs[c] = math.Log(g.weights[c]+1e-300) + g.logGauss(c, p)
				if logs[c] > maxLog {
					maxLog = logs[c]
				}
			}
			sum := 0.0
			for c := 0; c < k; c++ {
				logs[c] = math.Exp(logs[c] - maxLog)
				sum += logs[c]
			}
			for c := 0; c < k; c++ {
				logs[c] /= sum
			}
		}
		// M step.
		for c := 0; c < k; c++ {
			wsum := 0.0
			mean := make([]float64, g.dim)
			for i, p := range pts {
				w := resp[i][c]
				wsum += w
				for d := 0; d < g.dim; d++ {
					mean[d] += w * p[d]
				}
			}
			if wsum < 1e-9 {
				continue // dead component; keep previous parameters
			}
			for d := 0; d < g.dim; d++ {
				mean[d] /= wsum
			}
			vr := make([]float64, g.dim)
			for i, p := range pts {
				w := resp[i][c]
				for d := 0; d < g.dim; d++ {
					dv := p[d] - mean[d]
					vr[d] += w * dv * dv
				}
			}
			for d := 0; d < g.dim; d++ {
				vr[d] = vr[d]/wsum + 1e-6
			}
			g.weights[c] = wsum / float64(n)
			g.means[c] = mean
			g.vars[c] = vr
		}
	}
	g.fitted = true
	g.resid = residualStd(g.Predict, cols, y)
	return nil
}

func (g *GMM) logGauss(c int, p []float64) float64 {
	s := 0.0
	for d := 0; d < g.dim; d++ {
		dv := p[d] - g.means[c][d]
		s += -0.5*dv*dv/g.vars[c][d] - 0.5*math.Log(2*math.Pi*g.vars[c][d])
	}
	return s
}

// Predict returns E[y | x] under the mixture: the responsibility-weighted
// component means of the target dimension, with responsibilities computed
// from the feature dimensions only.
func (g *GMM) Predict(x []float64) float64 {
	if !g.fitted {
		return 0
	}
	nFeat := g.dim - 1
	k := len(g.weights)
	logs := make([]float64, k)
	maxLog := math.Inf(-1)
	for c := 0; c < k; c++ {
		s := math.Log(g.weights[c] + 1e-300)
		for d := 0; d < nFeat && d < len(x); d++ {
			dv := x[d] - g.means[c][d]
			s += -0.5*dv*dv/g.vars[c][d] - 0.5*math.Log(2*math.Pi*g.vars[c][d])
		}
		logs[c] = s
		if s > maxLog {
			maxLog = s
		}
	}
	sum, pred := 0.0, 0.0
	for c := 0; c < k; c++ {
		w := math.Exp(logs[c] - maxLog)
		sum += w
		pred += w * g.means[c][nFeat]
	}
	if sum == 0 {
		return g.ymean
	}
	return pred / sum
}

// ResidualStd returns the training residual standard deviation.
func (g *GMM) ResidualStd() float64 { return g.resid }

// ---------------------------------------------------------------------------
// Neural network

// MLP is a one-hidden-layer tanh network trained by mini-batch SGD with
// momentum. The paper's comparison used networks of up to 3 layers with 5
// neurons; with a few hundred training points these overfit or underfit,
// which is exactly the effect Fig 8a demonstrates.
type MLP struct {
	// Hidden is the hidden-layer width.
	Hidden int
	// Epochs is the number of passes over the training data.
	Epochs int
	// LR is the SGD learning rate.
	LR float64
	// Seed makes weight initialization deterministic.
	Seed int64

	w1        [][]float64 // hidden x in
	b1        []float64
	w2        []float64 // hidden
	b2        float64
	featMean  []float64
	featStd   []float64
	yMean     float64
	yStd      float64
	resid     float64
	fitted    bool
	nFeatures int
}

// NewMLP returns an untrained network with the given hidden width.
func NewMLP(hidden int, seed int64) *MLP {
	return &MLP{Hidden: hidden, Epochs: 60, LR: 0.02, Seed: seed}
}

// MLPTrainer returns a Trainer producing MLPs with the given hidden width.
func MLPTrainer(hidden int, seed int64) Trainer {
	return func() Predictor { return NewMLP(hidden, seed) }
}

// Fit trains the network on standardized inputs and target.
func (m *MLP) Fit(cols [][]float64, y []float64) error {
	if err := checkShape(cols, y); err != nil {
		return err
	}
	n, nFeat := len(y), len(cols)
	m.nFeatures = nFeat
	var zx [][]float64
	var zy []float64
	m.featMean, m.featStd, m.yMean, m.yStd, zx, zy = standardize(cols, y)
	h := m.Hidden
	if h < 1 {
		h = 1
	}
	rng := rand.New(rand.NewSource(m.Seed))
	m.w1 = make([][]float64, h)
	m.b1 = make([]float64, h)
	m.w2 = make([]float64, h)
	scale := 1 / math.Sqrt(float64(nFeat+1))
	for i := 0; i < h; i++ {
		m.w1[i] = make([]float64, nFeat)
		for j := range m.w1[i] {
			m.w1[i][j] = rng.NormFloat64() * scale
		}
		m.w2[i] = rng.NormFloat64() * scale
	}
	hid := make([]float64, h)
	order := rng.Perm(n)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		lr := m.LR / (1 + 0.05*float64(epoch))
		for _, i := range order {
			// Forward.
			for k := 0; k < h; k++ {
				hid[k] = math.Tanh(mat.Dot(m.w1[k], zx[i]) + m.b1[k])
			}
			out := mat.Dot(m.w2, hid) + m.b2
			errv := out - zy[i]
			// Backward.
			for k := 0; k < h; k++ {
				gradW2 := errv * hid[k]
				dHid := errv * m.w2[k] * (1 - hid[k]*hid[k])
				m.w2[k] -= lr * gradW2
				for j := 0; j < nFeat; j++ {
					m.w1[k][j] -= lr * dHid * zx[i][j]
				}
				m.b1[k] -= lr * dHid
			}
			m.b2 -= lr * errv
		}
	}
	m.fitted = true
	m.resid = residualStd(m.Predict, cols, y)
	return nil
}

// Predict returns the network output for one feature vector.
func (m *MLP) Predict(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	h := len(m.w2)
	out := m.b2
	for k := 0; k < h; k++ {
		s := m.b1[k]
		for j := 0; j < m.nFeatures && j < len(x); j++ {
			s += m.w1[k][j] * (x[j] - m.featMean[j]) / m.featStd[j]
		}
		out += m.w2[k] * math.Tanh(s)
	}
	return out*m.yStd + m.yMean
}

// ResidualStd returns the training residual standard deviation.
func (m *MLP) ResidualStd() float64 { return m.resid }

// ---------------------------------------------------------------------------
// Linear SVR

// SVR is a linear epsilon-insensitive support-vector regressor trained by
// subgradient descent on the primal objective.
type SVR struct {
	// C is the slack penalty.
	C float64
	// Epsilon is the insensitive-tube half-width (in standardized units).
	Epsilon float64
	// Epochs is the number of passes of subgradient descent.
	Epochs int
	// Seed makes the sample order deterministic.
	Seed int64

	w         []float64
	b         float64
	featMean  []float64
	featStd   []float64
	yMean     float64
	yStd      float64
	resid     float64
	fitted    bool
	nFeatures int
}

// NewSVR returns an untrained linear SVR.
func NewSVR(seed int64) *SVR {
	return &SVR{C: 1.0, Epsilon: 0.1, Epochs: 60, Seed: seed}
}

// SVRTrainer returns a Trainer producing linear SVRs.
func SVRTrainer(seed int64) Trainer {
	return func() Predictor { return NewSVR(seed) }
}

// Fit runs subgradient descent on the epsilon-insensitive loss.
func (s *SVR) Fit(cols [][]float64, y []float64) error {
	if err := checkShape(cols, y); err != nil {
		return err
	}
	n, nFeat := len(y), len(cols)
	s.nFeatures = nFeat
	var zx [][]float64
	var zy []float64
	s.featMean, s.featStd, s.yMean, s.yStd, zx, zy = standardize(cols, y)
	s.w = make([]float64, nFeat)
	s.b = 0
	rng := rand.New(rand.NewSource(s.Seed))
	t := 1.0
	for epoch := 0; epoch < s.Epochs; epoch++ {
		for _, i := range rng.Perm(n) {
			lr := 1 / (0.01 * (t + 100))
			t++
			pred := mat.Dot(s.w, zx[i]) + s.b
			diff := pred - zy[i]
			// Regularization shrink.
			for j := range s.w {
				s.w[j] *= 1 - lr*0.001
			}
			if math.Abs(diff) <= s.Epsilon {
				continue
			}
			g := s.C
			if diff < 0 {
				g = -s.C
			}
			for j := range s.w {
				s.w[j] -= lr * g * zx[i][j]
			}
			s.b -= lr * g
		}
	}
	s.fitted = true
	s.resid = residualStd(s.Predict, cols, y)
	return nil
}

// Predict returns the SVR output for one feature vector.
func (s *SVR) Predict(x []float64) float64 {
	if !s.fitted {
		return 0
	}
	out := s.b
	for j := 0; j < s.nFeatures && j < len(x); j++ {
		out += s.w[j] * (x[j] - s.featMean[j]) / s.featStd[j]
	}
	return out*s.yStd + s.yMean
}

// ResidualStd returns the training residual standard deviation.
func (s *SVR) ResidualStd() float64 { return s.resid }
