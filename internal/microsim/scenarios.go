package microsim

import (
	"fmt"
	"math/rand"

	"murphy/internal/telemetry"
)

// Scenario is one generated failure case ready for diagnosis.
type Scenario struct {
	// Name identifies the scenario variant.
	Name string
	// Result is the emulated environment.
	Result *Result
	// Symptom is the problematic (entity, metric) pair an operator would
	// hand to a diagnosis tool.
	Symptom telemetry.Symptom
	// TruthEntity is the injected root cause's entity ID.
	TruthEntity telemetry.EntityID
	// Acceptable lists additional entities counted as hits under the
	// "relaxed" criteria of §6.1 (common services / common containers).
	Acceptable []telemetry.EntityID
	// FaultStart is the slice at which the incident begins.
	FaultStart int
	// CallDAG lists the directed cause→effect service edges Sage is given
	// (built from the affected entrypoint's call tree only, per §6.1).
	CallDAG [][2]telemetry.EntityID
}

// InterferenceOptions parameterizes the Fig 5a performance-interference
// scenario on the hotel topology.
type InterferenceOptions struct {
	// Steps is the emulation length; the fault occupies the final quarter.
	Steps int
	// VictimBaseRPS is client B's steady request rate.
	VictimBaseRPS float64
	// AggressorBaseRPS is client A's pre-incident request rate.
	AggressorBaseRPS float64
	// AggressorSpikeRPS is client A's in-incident request rate.
	AggressorSpikeRPS float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultInterferenceOptions mirrors the paper's setup scaled to emulation.
func DefaultInterferenceOptions() InterferenceOptions {
	return InterferenceOptions{
		Steps:             400,
		VictimBaseRPS:     80,
		AggressorBaseRPS:  100,
		AggressorSpikeRPS: 1200,
		Seed:              1,
	}
}

// Interference builds the Fig 5a scenario: client A (aggressor) hits
// service 1 (search path), client B (victim) hits service 2 (reservation
// path); the two call trees share downstream services whose shared node
// saturates when A spikes, raising B's observed latency. The true root cause
// is client A's flow; the relaxed-accept set contains the overwhelmed common
// services and their containers. The relationship graph contains the cycle
// service1 ↔ common ↔ service2, which Sage cannot model: its DAG covers only
// the victim's call tree, so the aggressor is structurally invisible to it.
func Interference(opts InterferenceOptions) (*Scenario, error) {
	if opts.Steps < 40 {
		return nil, fmt.Errorf("microsim: interference needs at least 40 steps")
	}
	topo := HotelReservation()
	// Fig 5a's structure: the two API endpoints share common downstream
	// services. Make search (service 1) and reservation (service 2) both
	// call rate and profile, so the aggressor's influence reaches the victim
	// through the shared services — not through a common parent.
	topo.Services["search"].Children = []string{"geo", "rate", "profile"}
	topo.Services["reservation"].Children = []string{"profile", "rate"}
	rng := rand.New(rand.NewSource(opts.Seed))
	faultStart := opts.Steps * 3 / 4
	wA := &Workload{
		Name:  "clientA",
		Entry: "search",
		RPS:   StepRPS(opts.AggressorBaseRPS, opts.AggressorSpikeRPS, faultStart, opts.Steps, opts.AggressorBaseRPS*0.05, rng),
	}
	wB := &Workload{
		Name:  "clientB",
		Entry: "reservation",
		RPS:   ConstantRPS(opts.VictimBaseRPS, opts.VictimBaseRPS*0.05, rng),
	}
	// Move search's leaf dependencies onto the same node as reservation's so
	// they truly share hardware: geo, rate, profile all on node-5.
	topo.Services["geo"].Node = "node-5"
	topo.Services["rate"].Node = "node-5"
	topo.Services["profile"].Node = "node-5"
	sim := &Sim{
		Topo:      topo,
		Steps:     opts.Steps,
		Workloads: []*Workload{wA, wB},
		Seed:      opts.Seed,
		NoiseFrac: 0.02,
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	sc := &Scenario{
		Name:        fmt.Sprintf("interference-rps%d", int(opts.AggressorSpikeRPS)),
		Result:      res,
		Symptom:     telemetry.Symptom{Entity: res.ClientEntity["clientB"], Metric: telemetry.MetricLatency, High: true},
		TruthEntity: res.ClientEntity["clientA"],
		FaultStart:  faultStart,
	}
	// Relaxed hits: the aggressor flow, the shared services and containers.
	sc.Acceptable = append(sc.Acceptable, res.FlowEntity["clientA"])
	for _, common := range []string{"geo", "rate", "profile"} {
		sc.Acceptable = append(sc.Acceptable, res.ServiceEntity[common], res.ContainerEntity[common])
	}
	sc.CallDAG = victimCallDAG(topo, res, "reservation")
	return sc, nil
}

// VictimCallDAG builds the cause→effect DAG Sage receives: only the victim
// entrypoint's call tree, with edges from callee to caller (a slow callee
// causes a slow caller) plus container→service edges (a stressed container
// causes a slow service). It is exported so scenario builders outside this
// package (the metamorph fuzzer) can hand Sage the same honest DAG view.
func VictimCallDAG(topo *Topology, res *Result, entry string) [][2]telemetry.EntityID {
	return victimCallDAG(topo, res, entry)
}

func victimCallDAG(topo *Topology, res *Result, entry string) [][2]telemetry.EntityID {
	var edges [][2]telemetry.EntityID
	seen := map[string]bool{}
	var walk func(string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		edges = append(edges, [2]telemetry.EntityID{res.ContainerEntity[name], res.ServiceEntity[name]})
		for _, c := range topo.Services[name].Children {
			edges = append(edges, [2]telemetry.EntityID{res.ServiceEntity[c], res.ServiceEntity[name]})
			walk(c)
		}
	}
	walk(entry)
	return edges
}

// ContentionOptions parameterizes the §6.3 resource-contention scenarios.
type ContentionOptions struct {
	// Topo selects the application ("hotel" or "social").
	Topo string
	// Steps is the emulation length.
	Steps int
	// PriorIncidents is how many short-lived prior faults are injected into
	// the training window (the paper uses up to 14).
	PriorIncidents int
	// Kind is the stressed resource.
	Kind FaultKind
	// Intensity is the stress magnitude (utilization fraction).
	Intensity float64
	// Seed drives fault placement and noise.
	Seed int64
}

// DefaultContentionOptions returns a hotel-topology CPU contention setup.
func DefaultContentionOptions() ContentionOptions {
	return ContentionOptions{Topo: "hotel", Steps: 360, PriorIncidents: 4, Kind: FaultCPU, Intensity: 0.55, Seed: 1}
}

// Contention builds one §6.3 scenario: a resource fault on a random
// container of the chosen application while a steady client workload runs.
// The symptom is the entrypoint client's latency; the truth is the stressed
// container. The call graph here is a clean DAG (no interference between
// entrypoints), which is Sage's home turf.
func Contention(opts ContentionOptions) (*Scenario, error) {
	if opts.Steps < 60 {
		return nil, fmt.Errorf("microsim: contention needs at least 60 steps")
	}
	var topo *Topology
	switch opts.Topo {
	case "hotel", "":
		topo = HotelReservation()
	case "social":
		topo = SocialNetwork()
	default:
		return nil, fmt.Errorf("microsim: unknown topology %q", opts.Topo)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	entry := topo.Entrypoints[0]
	// Choose the faulty service among those in the entry's call tree so the
	// fault actually affects the symptom.
	mult := topo.callMultipliers(entry)
	var inTree []string
	for _, name := range topo.ServiceNames() {
		if mult[name] > 0 {
			inTree = append(inTree, name)
		}
	}
	target := inTree[rng.Intn(len(inTree))]
	// Faults last 5-10 minutes at the 10 s grain (§5.1.2), regardless of
	// how long the surrounding trace is.
	faultDur := 30 + rng.Intn(30)
	if faultDur > opts.Steps/5 {
		faultDur = opts.Steps / 5
	}
	faultStart := opts.Steps - faultDur
	faults := []Fault{{
		Service:   target,
		Kind:      opts.Kind,
		Intensity: opts.Intensity,
		Start:     faultStart,
		Duration:  faultDur,
	}}
	// Prior incidents: short faults on random services inside the training
	// window (§6.3 "for realism, as in Sage"). They avoid the main fault's
	// container: the incident to be diagnosed involves a metric pattern that
	// has not occurred in the past, which is the premise of the paper's
	// online-vs-offline comparison (§6.5.1, §6.2).
	others := make([]string, 0, len(inTree)-1)
	for _, s := range inTree {
		if s != target {
			others = append(others, s)
		}
	}
	if len(others) == 0 {
		others = inTree
	}
	for i := 0; i < opts.PriorIncidents; i++ {
		svc := others[rng.Intn(len(others))]
		start := 10 + rng.Intn(faultStart-30)
		faults = append(faults, Fault{
			Service:   svc,
			Kind:      opts.Kind,
			Intensity: opts.Intensity * (0.5 + rng.Float64()*0.5),
			Start:     start,
			Duration:  5 + rng.Intn(10),
		})
	}
	// Baseline request rate sized so the cluster sits at moderate load:
	// the single-node social deployment saturates far earlier than the
	// 7-node hotel cluster.
	baseRPS := 120.0
	if opts.Topo == "social" {
		baseRPS = 25.0
	}
	w := &Workload{Name: "client", Entry: entry, RPS: ConstantRPS(baseRPS, baseRPS*0.05, rng)}
	sim := &Sim{
		Topo:      topo,
		Steps:     opts.Steps,
		Workloads: []*Workload{w},
		Faults:    faults,
		Seed:      opts.Seed,
		NoiseFrac: 0.02,
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	sc := &Scenario{
		Name:        fmt.Sprintf("contention-%s-%s-%s", opts.Topo, opts.Kind, target),
		Result:      res,
		Symptom:     telemetry.Symptom{Entity: res.ClientEntity["client"], Metric: telemetry.MetricLatency, High: true},
		TruthEntity: res.ContainerEntity[target],
		Acceptable:  []telemetry.EntityID{res.ServiceEntity[target]},
		FaultStart:  faultStart,
	}
	sc.CallDAG = victimCallDAG(topo, res, entry)
	// Sage's DAG also needs the client at the top: entry service causes the
	// client's latency.
	sc.CallDAG = append(sc.CallDAG, [2]telemetry.EntityID{res.ServiceEntity[entry], res.ClientEntity["client"]})
	return sc, nil
}
