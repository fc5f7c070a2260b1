package microsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"murphy/internal/telemetry"
)

// Workload is one open-loop client hitting an entrypoint service, in the
// style of wrk2: the offered request rate is independent of response times.
type Workload struct {
	// Name identifies the client (also the client entity name).
	Name string
	// Entry is the entrypoint service the client targets.
	Entry string
	// RPS returns the offered request rate at step t.
	RPS func(t int) float64
}

// ConstantRPS returns a rate function with Gaussian jitter around base.
func ConstantRPS(base, jitter float64, rng *rand.Rand) func(int) float64 {
	return func(int) float64 {
		v := base + rng.NormFloat64()*jitter
		if v < 0 {
			return 0
		}
		return v
	}
}

// StepRPS returns base RPS, stepping to spike for t in [from, to).
func StepRPS(base, spike float64, from, to int, jitter float64, rng *rand.Rand) func(int) float64 {
	return func(t int) float64 {
		v := base
		if t >= from && t < to {
			v = spike
		}
		v += rng.NormFloat64() * jitter
		if v < 0 {
			return 0
		}
		return v
	}
}

// FaultKind is the resource a contention fault stresses.
type FaultKind string

// Fault kinds injected by the stress-ng replacement.
const (
	FaultCPU  FaultKind = "cpu"
	FaultMem  FaultKind = "mem"
	FaultDisk FaultKind = "disk"
)

// Fault is one stress-ng-like resource-contention injection on a service's
// container for steps [Start, Start+Duration).
type Fault struct {
	Service   string
	Kind      FaultKind
	Intensity float64 // added utilization fraction (0..1)
	Start     int
	Duration  int
}

// active reports whether the fault is in effect at step t.
func (f Fault) active(t int) bool { return t >= f.Start && t < f.Start+f.Duration }

// Sim runs a discrete-time emulation of one topology under workloads and
// faults and records telemetry.
type Sim struct {
	// Topo is the application topology.
	Topo *Topology
	// Steps is the number of 10-second time slices to simulate.
	Steps int
	// Workloads are the open-loop clients.
	Workloads []*Workload
	// Faults are the injected resource-contention faults.
	Faults []Fault
	// Seed drives the emulation noise.
	Seed int64
	// NoiseFrac is the relative measurement noise on recorded metrics.
	NoiseFrac float64
}

// Result is the emulated environment ready for diagnosis.
type Result struct {
	// DB holds the recorded telemetry with relationship metadata.
	DB *telemetry.DB
	// ServiceEntity / ContainerEntity / NodeEntity / ClientEntity /
	// FlowEntity map simulation names to entity IDs.
	ServiceEntity   map[string]telemetry.EntityID
	ContainerEntity map[string]telemetry.EntityID
	NodeEntity      map[string]telemetry.EntityID
	ClientEntity    map[string]telemetry.EntityID
	FlowEntity      map[string]telemetry.EntityID
}

// Run executes the emulation. The relationship graph it writes follows the
// monitoring platform's loose association rules: client↔flow↔entrypoint
// service; caller↔callee services; service↔its container; container↔its
// node. All associations are bidirectional — exactly the over-approximation
// Murphy expects (§4.1) — and co-located containers become mutually
// reachable through their shared node entity, which is how interference
// propagates without any call-graph edge.
func (s *Sim) Run() (*Result, error) {
	if err := s.Topo.Validate(); err != nil {
		return nil, err
	}
	if s.Steps <= 0 {
		return nil, fmt.Errorf("microsim: Steps must be positive")
	}
	rng := rand.New(rand.NewSource(s.Seed))
	db := telemetry.NewDB(10)
	res := &Result{
		DB:              db,
		ServiceEntity:   make(map[string]telemetry.EntityID),
		ContainerEntity: make(map[string]telemetry.EntityID),
		NodeEntity:      make(map[string]telemetry.EntityID),
		ClientEntity:    make(map[string]telemetry.EntityID),
		FlowEntity:      make(map[string]telemetry.EntityID),
	}
	app := s.Topo.App

	// Entities: nodes.
	var nodeNames []string
	for n := range s.Topo.Nodes {
		nodeNames = append(nodeNames, n)
	}
	sort.Strings(nodeNames)
	for _, n := range nodeNames {
		id := telemetry.EntityID(app + "/node/" + n)
		res.NodeEntity[n] = id
		if err := db.AddEntity(&telemetry.Entity{ID: id, Type: telemetry.TypeNode, Name: n, App: app}); err != nil {
			return nil, err
		}
	}
	// Entities: services + containers.
	for _, name := range s.Topo.ServiceNames() {
		def := s.Topo.Services[name]
		sid := telemetry.EntityID(app + "/svc/" + name)
		cid := telemetry.EntityID(app + "/ctr/" + name)
		res.ServiceEntity[name] = sid
		res.ContainerEntity[name] = cid
		if err := db.AddEntity(&telemetry.Entity{ID: sid, Type: telemetry.TypeService, Name: name, App: app}); err != nil {
			return nil, err
		}
		if err := db.AddEntity(&telemetry.Entity{ID: cid, Type: telemetry.TypeContainer, Name: name + "-ctr", App: app}); err != nil {
			return nil, err
		}
		if err := db.Associate(sid, cid, telemetry.Bidirectional); err != nil {
			return nil, err
		}
		if err := db.Associate(cid, res.NodeEntity[def.Node], telemetry.Bidirectional); err != nil {
			return nil, err
		}
	}
	// Service call edges (loose, bidirectional: the platform sees RPC flows
	// but not their causal direction).
	for _, name := range s.Topo.ServiceNames() {
		for _, c := range s.Topo.Services[name].Children {
			if err := db.Associate(res.ServiceEntity[name], res.ServiceEntity[c], telemetry.Bidirectional); err != nil {
				return nil, err
			}
		}
	}
	// Clients and flows.
	for _, w := range s.Workloads {
		if _, ok := s.Topo.Services[w.Entry]; !ok {
			return nil, fmt.Errorf("microsim: workload %q targets unknown service %q", w.Name, w.Entry)
		}
		clid := telemetry.EntityID(app + "/client/" + w.Name)
		flid := telemetry.EntityID(app + "/flow/" + w.Name + "->" + w.Entry)
		res.ClientEntity[w.Name] = clid
		res.FlowEntity[w.Name] = flid
		if err := db.AddEntity(&telemetry.Entity{ID: clid, Type: telemetry.TypeClient, Name: w.Name, App: app}); err != nil {
			return nil, err
		}
		if err := db.AddEntity(&telemetry.Entity{ID: flid, Type: telemetry.TypeFlow, Name: w.Name + "->" + w.Entry, App: app}); err != nil {
			return nil, err
		}
		if err := db.Associate(clid, flid, telemetry.Bidirectional); err != nil {
			return nil, err
		}
		if err := db.Associate(flid, res.ServiceEntity[w.Entry], telemetry.Bidirectional); err != nil {
			return nil, err
		}
	}

	// Precompute per-workload call multipliers.
	mults := make([]map[string]float64, len(s.Workloads))
	for i, w := range s.Workloads {
		mults[i] = s.Topo.callMultipliers(w.Entry)
	}
	noise := func(v float64) float64 {
		if s.NoiseFrac <= 0 {
			return v
		}
		return v * (1 + rng.NormFloat64()*s.NoiseFrac)
	}

	// Per-step state.
	for t := 0; t < s.Steps; t++ {
		// Offered rates.
		clientRPS := make([]float64, len(s.Workloads))
		svcRPS := make(map[string]float64, len(s.Topo.Services))
		for i, w := range s.Workloads {
			clientRPS[i] = w.RPS(t)
			for svc, m := range mults[i] {
				svcRPS[svc] += clientRPS[i] * m
			}
		}
		// Container utilizations (before node contention).
		ctrCPU := make(map[string]float64, len(s.Topo.Services))
		ctrMem := make(map[string]float64, len(s.Topo.Services))
		ctrDisk := make(map[string]float64, len(s.Topo.Services))
		stress := make(map[string]float64, len(s.Faults))
		for _, name := range s.Topo.ServiceNames() {
			def := s.Topo.Services[name]
			ctrCPU[name] = svcRPS[name] * def.CostCPU
			ctrMem[name] = 0.2 + 0.001*svcRPS[name]
			ctrDisk[name] = 0.05 + 0.0005*svcRPS[name]
		}
		for _, f := range s.Faults {
			if !f.active(t) {
				continue
			}
			switch f.Kind {
			case FaultCPU:
				ctrCPU[f.Service] += f.Intensity * s.Topo.Nodes[s.Topo.Services[f.Service].Node]
				stress[f.Service] += f.Intensity
			case FaultMem:
				ctrMem[f.Service] += f.Intensity
				stress[f.Service] += f.Intensity * 1.2
			case FaultDisk:
				ctrDisk[f.Service] += f.Intensity
				stress[f.Service] += f.Intensity * 1.2
			}
		}
		// Node utilization: sum of its containers' CPU over capacity.
		nodeCPU := make(map[string]float64, len(s.Topo.Nodes))
		for _, name := range s.Topo.ServiceNames() {
			nodeCPU[s.Topo.Services[name].Node] += ctrCPU[name]
		}
		nodeUtil := make(map[string]float64, len(s.Topo.Nodes))
		for n, cap := range s.Topo.Nodes {
			nodeUtil[n] = nodeCPU[n] / cap
		}
		// Per-service own latency: base inflated by effective utilization of
		// its node (shared resource → co-located services interfere) and by
		// its own stress.
		ownLat := make(map[string]float64, len(s.Topo.Services))
		for _, name := range s.Topo.ServiceNames() {
			def := s.Topo.Services[name]
			u := nodeUtil[def.Node] + stress[name]
			if u > 0.97 {
				u = 0.97
			}
			if u < 0 {
				u = 0
			}
			ownLat[name] = def.BaseLatencyMS / (1 - u)
		}
		// End-to-end latency: own + sum of children (memoized per step).
		e2e := make(map[string]float64, len(s.Topo.Services))
		var latOf func(string) float64
		latOf = func(name string) float64 {
			if v, ok := e2e[name]; ok {
				return v
			}
			v := ownLat[name]
			for _, c := range s.Topo.Services[name].Children {
				v += latOf(c)
			}
			e2e[name] = v
			return v
		}

		// Record metrics.
		for _, name := range s.Topo.ServiceNames() {
			sid := res.ServiceEntity[name]
			cid := res.ContainerEntity[name]
			def := s.Topo.Services[name]
			cu := ctrCPU[name] / s.Topo.Nodes[def.Node]
			if cu > 1 {
				cu = 1
			}
			if err := db.Observe(sid, telemetry.MetricLatency, t, noise(latOf(name))); err != nil {
				return nil, err
			}
			if err := db.Observe(sid, telemetry.MetricRPS, t, noise(svcRPS[name])); err != nil {
				return nil, err
			}
			if err := db.Observe(cid, telemetry.MetricCPU, t, clamp01(noise(cu))); err != nil {
				return nil, err
			}
			if err := db.Observe(cid, telemetry.MetricMem, t, clamp01(noise(ctrMem[name]))); err != nil {
				return nil, err
			}
			if err := db.Observe(cid, telemetry.MetricDiskUtil, t, clamp01(noise(ctrDisk[name]))); err != nil {
				return nil, err
			}
			if err := db.Observe(cid, telemetry.MetricNetTx, t, noise(svcRPS[name]*2)); err != nil {
				return nil, err
			}
		}
		for _, n := range nodeNames {
			nid := res.NodeEntity[n]
			if err := db.Observe(nid, telemetry.MetricCPU, t, clamp01(noise(nodeUtil[n]))); err != nil {
				return nil, err
			}
			if err := db.Observe(nid, telemetry.MetricMem, t, clamp01(noise(0.3+0.3*nodeUtil[n]))); err != nil {
				return nil, err
			}
		}
		for i, w := range s.Workloads {
			clid := res.ClientEntity[w.Name]
			flid := res.FlowEntity[w.Name]
			if err := db.Observe(clid, telemetry.MetricRPS, t, noise(clientRPS[i])); err != nil {
				return nil, err
			}
			if err := db.Observe(clid, telemetry.MetricLatency, t, noise(latOf(w.Entry))); err != nil {
				return nil, err
			}
			if err := db.Observe(flid, telemetry.MetricThroughput, t, noise(clientRPS[i]*1500)); err != nil {
				return nil, err
			}
			if err := db.Observe(flid, telemetry.MetricSessions, t, noise(clientRPS[i]/2)); err != nil {
				return nil, err
			}
			if err := db.Observe(flid, telemetry.MetricRTT, t, noise(1+latOf(w.Entry)*0.05)); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}
