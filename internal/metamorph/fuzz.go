// Package metamorph is the correctness subsystem guarding the diagnosis
// pipeline end to end. Conventional unit tests cannot tell a subtly-wrong
// statistical ranking from a right one, so this package attacks the problem
// from two sides:
//
//   - an adversarial scenario fuzzer that composes randomized ground-truth
//     incidents (heavy hitters, noisy neighbors, cascade chains,
//     correlated-but-innocent confounders, enterprise crawler spikes) from
//     the microsim and enterprise topologies, every parameter derived from
//     one splitmix64-expanded seed so any failure replays exactly;
//   - metamorphic invariants over the full pipeline: a diagnosis must
//     survive entity renaming, edge-insertion-order permutation, affine
//     metric rescaling, and injection of disconnected decoy entities, must
//     never *gain* a root cause when the true cause's telemetry is ablated,
//     and every fast-path configuration (early stopping × workers, plus
//     incremental-store reuse) must agree with the reference serial path.
//
// The same fuzzer feeds harness.RunBaselines, whose Murphy precision/recall
// numbers cmd/accguard pins against testdata/acc_baseline.json in CI.
package metamorph

import (
	"fmt"
	"math/rand"

	"murphy/internal/enterprise"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// Case is one fuzzed ground-truth incident ready for diagnosis.
type Case struct {
	// Family is the scenario family that generated the case.
	Family string
	// Index is the case number within the family.
	Index int
	// Seed is the derived splitmix64 sub-seed every random choice of the
	// case came from. Logging it is enough to regenerate the case exactly:
	// Generate(Family, Index, base) with the same base yields the same Seed.
	Seed int64
	// DB is the recorded telemetry.
	DB *telemetry.DB
	// Symptom is the problematic (entity, metric) an operator would report.
	Symptom telemetry.Symptom
	// Truth is the injected root cause.
	Truth telemetry.EntityID
	// Accept contains Truth plus the additional entities counted as hits
	// under the relaxed criteria of §6.1.
	Accept map[telemetry.EntityID]bool
	// FaultStart is the slice at which the incident begins.
	FaultStart int
	// CallDAG lists the directed cause→effect edges of the affected
	// entrypoint's call tree — the honest DAG view a Sage-style diagnoser is
	// given (§6.1). Families whose environment has no usable causal DAG (the
	// cyclic enterprise topology) leave it nil; Sage is then structurally
	// inapplicable, exactly as in Table 1.
	CallDAG [][2]telemetry.EntityID
}

// Scenario families the fuzzer composes.
const (
	FamilyHeavyHitter   = "heavyhitter"   // Fig 5a interference: an aggressor client spikes
	FamilyNoisyNeighbor = "noisyneighbor" // §6.3 resource contention on a random container
	FamilyCascade       = "cascade"       // a deep call chain with a fault at a random depth
	FamilyConfounder    = "confounder"    // contention plus a correlated-but-innocent decoy client
	FamilyEnterprise    = "enterprise"    // Fig 1 crawler heavy hitter on the enterprise topology
)

// Families lists the scenario families in fixed order.
var Families = []string{FamilyHeavyHitter, FamilyNoisyNeighbor, FamilyCascade, FamilyConfounder, FamilyEnterprise}

// splitmixGamma is the splitmix64 counter increment (2^64 / φ, odd).
const splitmixGamma = 0x9e3779b97f4a7c15

// splitMix64 is the SplitMix64 finalizer applied to x + splitmixGamma: a
// bijective avalanche, so the output of a splitmix64 stream whose counter
// stands at x is splitMix64(x).
func splitMix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CaseSeed expands (base, family, index) into the case's sub-seed through
// the splitmix64 finalizer: unrelated streams per family and index, a pure
// function of its inputs.
func CaseSeed(base int64, family string, index int) int64 {
	h := splitMix64(uint64(base))
	for i := 0; i < len(family); i++ {
		h = splitMix64(h ^ uint64(family[i]))
	}
	return int64(splitMix64(h ^ uint64(index)*splitmixGamma))
}

// Generate builds case number index of a family from a base seed. All
// randomness — topology choice, fault kind and placement, rates, durations —
// derives from CaseSeed(base, family, index), so a logged (family, index,
// base) triple replays the exact case.
func Generate(family string, index int, base int64) (*Case, error) {
	seed := CaseSeed(base, family, index)
	rng := rand.New(rand.NewSource(seed))
	var (
		c   *Case
		err error
	)
	switch family {
	case FamilyHeavyHitter:
		c, err = genHeavyHitter(rng, seed)
	case FamilyNoisyNeighbor:
		c, err = genNoisyNeighbor(rng, seed)
	case FamilyCascade:
		c, err = genCascade(rng, seed)
	case FamilyConfounder:
		c, err = genConfounder(rng, seed)
	case FamilyEnterprise:
		c, err = genEnterprise(rng, seed)
	default:
		return nil, fmt.Errorf("metamorph: unknown family %q", family)
	}
	if err != nil {
		return nil, fmt.Errorf("metamorph: %s[%d] seed=%d: %w", family, index, seed, err)
	}
	c.Family, c.Index, c.Seed = family, index, seed
	return c, nil
}

// acceptSet collects the truth and any additional acceptable entities.
func acceptSet(truth telemetry.EntityID, more ...telemetry.EntityID) map[telemetry.EntityID]bool {
	set := map[telemetry.EntityID]bool{truth: true}
	for _, id := range more {
		set[id] = true
	}
	return set
}

// genHeavyHitter randomizes the Fig 5a interference scenario: aggressor
// spike magnitude, base rates, and length all vary per case.
func genHeavyHitter(rng *rand.Rand, seed int64) (*Case, error) {
	opts := microsim.InterferenceOptions{
		Steps:             120 + rng.Intn(80),
		VictimBaseRPS:     60 + rng.Float64()*60,
		AggressorBaseRPS:  80 + rng.Float64()*60,
		AggressorSpikeRPS: 800 + rng.Float64()*800,
		Seed:              seed,
	}
	sc, err := microsim.Interference(opts)
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

// genNoisyNeighbor randomizes the §6.3 contention scenario: topology, fault
// kind, intensity, prior-incident count, and length.
func genNoisyNeighbor(rng *rand.Rand, seed int64) (*Case, error) {
	kinds := []microsim.FaultKind{microsim.FaultCPU, microsim.FaultMem, microsim.FaultDisk}
	topo := "hotel"
	if rng.Intn(4) == 0 {
		topo = "social"
	}
	opts := microsim.ContentionOptions{
		Topo:           topo,
		Steps:          160 + rng.Intn(80),
		PriorIncidents: rng.Intn(5),
		Kind:           kinds[rng.Intn(len(kinds))],
		Intensity:      0.45 + rng.Float64()*0.25,
		Seed:           seed,
	}
	sc, err := microsim.Contention(opts)
	if err != nil {
		return nil, err
	}
	return fromScenario(sc), nil
}

// fromScenario adapts a microsim scenario into a fuzz case.
func fromScenario(sc *microsim.Scenario) *Case {
	return &Case{
		DB:         sc.Result.DB,
		Symptom:    sc.Symptom,
		Truth:      sc.TruthEntity,
		Accept:     acceptSet(sc.TruthEntity, sc.Acceptable...),
		FaultStart: sc.FaultStart,
		CallDAG:    sc.CallDAG,
	}
}

// genCascade builds a linear call chain client → s0 → s1 → … → s(L-1), each
// service on its own node, and stresses the container of a random service at
// depth ≥ 1. The symptom is the client's end-to-end latency; the anomaly has
// to be traced down the whole chain.
func genCascade(rng *rand.Rand, seed int64) (*Case, error) {
	depth := 4 + rng.Intn(4) // 4..7 services
	nodes := make(map[string]float64, depth)
	defs := make([]*microsim.ServiceDef, 0, depth)
	for i := 0; i < depth; i++ {
		node := fmt.Sprintf("node-%d", i)
		nodes[node] = 4
		def := &microsim.ServiceDef{
			Name:          fmt.Sprintf("svc-%d", i),
			CostCPU:       0.002 + rng.Float64()*0.003,
			BaseLatencyMS: 1 + rng.Float64()*3,
			Node:          node,
		}
		if i+1 < depth {
			def.Children = []string{fmt.Sprintf("svc-%d", i+1)}
		}
		defs = append(defs, def)
	}
	topo := microsim.NewTopology("cascade", nodes, defs, "svc-0")
	steps := 140 + rng.Intn(60)
	// Keep the fault short relative to the training window: a fault that
	// occupies a quarter of the history inflates every historical std enough
	// that the coarse explanation labels (z-score based) never fire, which
	// would leave fuzzed cascades without explanation chains.
	faultDur := 10 + rng.Intn(8)
	faultStart := steps - faultDur
	target := fmt.Sprintf("svc-%d", 1+rng.Intn(depth-1))
	baseRPS := 80 + rng.Float64()*60
	sim := &microsim.Sim{
		Topo:  topo,
		Steps: steps,
		Workloads: []*microsim.Workload{{
			Name:  "client",
			Entry: "svc-0",
			RPS:   microsim.ConstantRPS(baseRPS, baseRPS*0.05, rng),
		}},
		Faults: []microsim.Fault{{
			Service:   target,
			Kind:      microsim.FaultCPU,
			Intensity: 0.5 + rng.Float64()*0.25,
			Start:     faultStart,
			Duration:  faultDur,
		}},
		Seed:      seed,
		NoiseFrac: 0.02,
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	truth := res.ContainerEntity[target]
	dag := append(microsim.VictimCallDAG(topo, res, "svc-0"),
		[2]telemetry.EntityID{res.ServiceEntity["svc-0"], res.ClientEntity["client"]})
	return &Case{
		DB:         res.DB,
		Symptom:    telemetry.Symptom{Entity: res.ClientEntity["client"], Metric: telemetry.MetricLatency, High: true},
		Truth:      truth,
		Accept:     acceptSet(truth, res.ServiceEntity[target], res.NodeEntity[topo.Services[target].Node]),
		FaultStart: faultStart,
		CallDAG:    dag,
	}, nil
}

// genConfounder is the contention scenario with an adversarial twist: a
// second, low-volume client whose request rate spikes in exactly the fault
// window. Its RPS correlates strongly with the symptom but its load is far
// too small to cause it — a ranking scheme keying on correlation alone will
// finger the decoy, the counterfactual test should not.
func genConfounder(rng *rand.Rand, seed int64) (*Case, error) {
	topo := microsim.HotelReservation()
	steps := 160 + rng.Intn(60)
	faultDur := 25 + rng.Intn(15)
	faultStart := steps - faultDur
	// The fault lands on a random service in the entry tree (all hotel
	// services are reachable from the frontend).
	names := topo.ServiceNames()
	target := names[1+rng.Intn(len(names)-1)]
	baseRPS := 100 + rng.Float64()*40
	decoyBase := 10 + rng.Float64()*10
	victim := &microsim.Workload{
		Name:  "client",
		Entry: "frontend",
		RPS:   microsim.ConstantRPS(baseRPS, baseRPS*0.05, rng),
	}
	// Decoy: spikes 3x inside the fault window — visible, correlated, and
	// causally irrelevant (its peak adds well under 0.1 CPU to one node).
	decoy := &microsim.Workload{
		Name:  "decoy",
		Entry: "user",
		RPS:   microsim.StepRPS(decoyBase, decoyBase*3, faultStart, steps, decoyBase*0.05, rng),
	}
	sim := &microsim.Sim{
		Topo:      topo,
		Steps:     steps,
		Workloads: []*microsim.Workload{victim, decoy},
		Faults: []microsim.Fault{{
			Service:   target,
			Kind:      microsim.FaultCPU,
			Intensity: 0.5 + rng.Float64()*0.25,
			Start:     faultStart,
			Duration:  faultDur,
		}},
		Seed:      seed,
		NoiseFrac: 0.02,
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	truth := res.ContainerEntity[target]
	dag := append(microsim.VictimCallDAG(topo, res, "frontend"),
		[2]telemetry.EntityID{res.ServiceEntity["frontend"], res.ClientEntity["client"]})
	return &Case{
		DB:         res.DB,
		Symptom:    telemetry.Symptom{Entity: res.ClientEntity["client"], Metric: telemetry.MetricLatency, High: true},
		Truth:      truth,
		Accept:     acceptSet(truth, res.ServiceEntity[target]),
		FaultStart: faultStart,
		CallDAG:    dag,
	}, nil
}

// genEnterprise is the Fig 1 crawler incident on a small randomized
// enterprise topology: one application's client demand multiplies inside the
// fault window, saturating its backend database VM. The symptom is the
// backend CPU; the truth is the client flow (with the client VM acceptable).
func genEnterprise(rng *rand.Rand, seed int64) (*Case, error) {
	opts := enterprise.GenOptions{
		Apps:          3,
		Hosts:         4,
		Switches:      1,
		MaxVMsPerTier: 2,
		Steps:         110 + rng.Intn(40),
		Seed:          seed,
	}
	env, err := enterprise.Generate(opts)
	if err != nil {
		return nil, err
	}
	appIx := rng.Intn(opts.Apps)
	factor := 4 + rng.Float64()*4
	start := opts.Steps - opts.Steps/5
	hook := func(e *enterprise.Env, st *enterprise.StepState) {
		if t := st.T(); t >= start && t < opts.Steps {
			st.ScaleDemand(appIx, factor)
		}
	}
	if err := env.Run(hook); err != nil {
		return nil, err
	}
	truth := env.ClientFlow(appIx)
	return &Case{
		DB:         env.DB,
		Symptom:    telemetry.Symptom{Entity: env.DBVM(appIx), Metric: telemetry.MetricCPU, High: true},
		Truth:      truth,
		Accept:     acceptSet(truth, env.Client(appIx), env.WebVM(appIx)),
		FaultStart: start,
	}, nil
}
