package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/mat"
	"murphy/internal/microsim"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// kernelIncident is one social-network contention incident, diagnosed a few
// slices into its fault the way a live triage would see it.
type kernelIncident struct {
	seed int64
	db   *telemetry.DB
	g    *graph.Graph
	now  int
	sym  telemetry.Symptom
}

// kernelIncidentSeeds fault two different services of the social network.
var kernelIncidentSeeds = []int64{1000, 1001}

func kernelIncidents(t *testing.T) []kernelIncident {
	t.Helper()
	var out []kernelIncident
	for _, seed := range kernelIncidentSeeds {
		sc, err := microsim.Contention(microsim.ContentionOptions{
			Topo: "social", Steps: 400, PriorIncidents: 4,
			Kind: microsim.FaultCPU, Intensity: 0.55, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := sc.Result.DB
		g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, kernelIncident{seed: seed, db: db, g: g, now: sc.FaultStart + 8, sym: sc.Symptom})
	}
	return out
}

// kernelVerdicts trains inc with the given trainer (nil: the default ridge)
// and evaluates every pruned candidate at 1000 samples, one line per
// candidate: the entity, whether it was certified, and the exact bits of
// its p-value and effect with the samples used.
func kernelVerdicts(t *testing.T, inc kernelIncident, trainer regress.Trainer, earlyStop bool) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Samples = 1000
	cfg.Sampler.EarlyStop = earlyStop
	m, err := TrainOpt(context.Background(), inc.db, inc.g, cfg, TrainOpts{Now: inc.now, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# seed %d symptom %s/%s earlystop=%v\n", inc.seed, inc.sym.Entity, inc.sym.Metric, earlyStop)
	for _, a := range m.Candidates(inc.sym.Entity) {
		rc, ok := m.EvaluateCandidate(a, inc.sym)
		fmt.Fprintf(&b, "%s %v p=%016x effect=%016x samples=%d\n",
			a, ok, math.Float64bits(rc.PValue), math.Float64bits(rc.Effect), rc.SamplesUsed)
	}
	return b.String()
}

// TestKernelVerdictBitsGolden pins the float64 kernel's verdicts bit for
// bit: every candidate of two social-network contention incidents, with a
// fixed budget and with early stop. Ranked cause lists and rounded tables
// would let a p-value drift that flips no verdict through; this golden does
// not. Regenerate with UPDATE_GOLDEN=1.
func TestKernelVerdictBitsGolden(t *testing.T) {
	var b strings.Builder
	for _, inc := range kernelIncidents(t) {
		for _, early := range []bool{false, true} {
			b.WriteString(kernelVerdicts(t, inc, nil, early))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "kernel_verdicts.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestKernelGenericPathMatchesFused trains the same incidents with a ridge
// that hides LinearTerms, so every step of every plan runs the generic
// per-sample loop, and requires the fused kernel's verdicts bit for bit:
// both paths apply the same terms in the same order and draw the same noise
// stream.
func TestKernelGenericPathMatchesFused(t *testing.T) {
	trainer := regress.Trainer(func() regress.Predictor { return rowMajorRidge{regress.NewRidge(DefaultConfig().Lambda)} })
	if _, ok := trainer().(linearTermer); ok {
		t.Fatal("rowMajorRidge must not offer LinearTerms")
	}
	for _, inc := range kernelIncidents(t) {
		for _, early := range []bool{false, true} {
			want := kernelVerdicts(t, inc, nil, early)
			got := kernelVerdicts(t, inc, trainer, early)
			if got != want {
				t.Fatalf("seed %d earlystop=%v: generic path drifted from fused:\n--- generic ---\n%s--- fused ---\n%s", inc.seed, early, got, want)
			}
		}
	}
}

// termModel is a generic-step predictor: Ridge.Predict's arithmetic behind
// the per-sample interface.
type termModel struct{ st *planStep }

func (p termModel) Predict(x []float64) float64 {
	v := p.st.intercept
	for j := range p.st.coef {
		v += p.st.coef[j] * (x[j] - p.st.mean[j]) / p.st.std[j]
	}
	return v
}
func (p termModel) Fit([][]float64, []float64) error { return nil }
func (p termModel) ResidualStd() float64             { return p.st.noise }

// eagerPass64 is the float64 kernel without scalar slots: every touched slot
// is filled into a chain vector up front and every term runs per chain. It
// draws from math/rand itself and writes the term arithmetic as a plain Go
// loop, so the kernel is held to the stdlib stream and to scalar Go
// arithmetic rather than to its own stats.Rand64 and mat.AccumTerm.
func eagerPass64(m *Model, plan *pathPlan, ov *overrides, rng *rand.Rand, n int) []float64 {
	vals := make([][]float64, len(m.current))
	for _, s := range plan.touched {
		vals[s] = make([]float64, n)
		mat.Fill(vals[s], m.current[s])
	}
	for i, s := range ov.slots {
		mat.Fill(vals[s], ov.vals[i])
	}
	x := make([]float64, 0, 16)
	for round := 0; round < m.cfg.GibbsRounds; round++ {
		for si := range plan.steps {
			st := &plan.steps[si]
			out := vals[st.out]
			if st.model != nil {
				for i := 0; i < n; i++ {
					x = x[:0]
					for _, fs := range st.feats {
						x = append(x, vals[fs][i])
					}
					v := st.model.Predict(x)
					if st.noise > 0 {
						v += rng.NormFloat64() * st.noise
					}
					out[i] = v
				}
				continue
			}
			mat.Fill(out, st.intercept)
			for j := range st.coef {
				for i, x := range vals[st.feats[j]] {
					out[i] += st.coef[j] * (x - st.mean[j]) / st.std[j]
				}
			}
			if st.noise > 0 {
				for i := range out {
					out[i] += rng.NormFloat64() * st.noise
				}
			}
		}
	}
	return vals[plan.symSlot]
}

// randomPlan builds a resampling plan over nslots slots whose steps mix
// noisy and noiseless linear steps with generic ones (some reading their own
// output slot), so slots move between scalar and vector form mid-pass.
func randomPlan(rng *rand.Rand, nslots int) *pathPlan {
	p := &pathPlan{symSlot: int32(rng.Intn(nslots))}
	for s := 0; s < nslots; s++ {
		p.touched = append(p.touched, int32(s))
	}
	for k := 2 + rng.Intn(6); k > 0; k-- {
		st := planStep{out: int32(rng.Intn(nslots))}
		generic := rng.Intn(3) == 0
		for _, fs := range rng.Perm(nslots)[:1+rng.Intn(4)] {
			if int32(fs) != st.out || generic {
				st.feats = append(st.feats, int32(fs))
			}
		}
		for range st.feats {
			st.coef = append(st.coef, rng.NormFloat64())
			st.mean = append(st.mean, rng.NormFloat64())
			st.std = append(st.std, 0.5+rng.Float64())
		}
		st.intercept = rng.NormFloat64()
		if rng.Intn(2) == 0 {
			st.noise = 0.1 + rng.Float64()
		}
		if generic {
			terms := st
			st.model = termModel{&terms}
		}
		p.steps = append(p.steps, st)
	}
	return p
}

// TestKernelScalarSlotsMatchEagerFill runs the float64 kernel and an eager
// reference, which fills every touched slot into a chain vector, over random
// plans and overrides, and requires the symptom draws bit for bit. One arena
// serves every pass at two sample counts, so stale vectors from an earlier
// pass must never be read.
func TestKernelScalarSlotsMatchEagerFill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ar := newArena()
	const nslots = 8
	for trial := 0; trial < 300; trial++ {
		m := &Model{current: make([]float64, nslots), cfg: Config{GibbsRounds: 1 + rng.Intn(4)}, obs: obs.New()}
		for s := range m.current {
			m.current[s] = rng.NormFloat64() * 3
		}
		plan := randomPlan(rng, nslots)
		ov := &overrides{}
		for _, s := range rng.Perm(nslots)[:rng.Intn(3)] {
			ov.slots = append(ov.slots, int32(s))
			ov.vals = append(ov.vals, rng.NormFloat64()*3)
		}
		var noise stats.Rand64
		for _, n := range []int{64, 37} {
			seed := rng.Int63()
			noise.Seed(seed)
			want := eagerPass64(m, plan, ov, rand.New(rand.NewSource(seed)), n)
			got, err := m.runPass(context.Background(), plan, ov, &noise, ar, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("trial %d: %d draws, want %d", trial, len(got), n)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d n=%d draw %d: %v, eager fill gives %v", trial, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCandidateTestAllocs bounds the allocations of a warm fixed-budget
// candidate test. The pooled arena keeps the chain vectors and the noise
// generator across tests, reseeding the generator in place, so what a test
// still allocates is its plan, path and override tables: 11 allocations for
// this candidate. A generator per stream (*rand.Rand plus its 4.9 KB
// source) adds two.
func TestCandidateTestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled arenas at random")
	}
	const maxAllocs = 11
	inc := kernelIncidents(t)[0]
	cfg := DefaultConfig()
	cfg.Samples = 1000
	m, err := TrainOpt(context.Background(), inc.db, inc.g, cfg, TrainOpts{Now: inc.now})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Candidates(inc.sym.Entity)[0]
	m.EvaluateCandidate(a, inc.sym) // warm: the arena grows its vectors
	allocs := testing.AllocsPerRun(50, func() { m.EvaluateCandidate(a, inc.sym) })
	if allocs > maxAllocs {
		t.Fatalf("a warm candidate test of %s allocates %.0f times, want at most %d", a, allocs, maxAllocs)
	}
}
