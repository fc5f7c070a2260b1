package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"murphy/internal/anomaly"
	"murphy/internal/enterprise"
	"murphy/internal/evalx"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// point is one metric observation of a streamed slice.
type point struct {
	entity telemetry.EntityID
	metric string
	value  float64
}

// slicePoints is one time slice's observations, in database order.
type slicePoints []point

// observe appends a slice as the database's next slice and returns how many
// points it wrote.
func observe(db *telemetry.DB, sl slicePoints) (int, error) {
	t := db.Len()
	for _, p := range sl {
		if err := db.Observe(p.entity, p.metric, t, p.value); err != nil {
			return 0, err
		}
	}
	return len(sl), nil
}

// slicesOf extracts the observations of slices [lo, hi) of db.
func slicesOf(db *telemetry.DB, lo, hi int) []slicePoints {
	out := make([]slicePoints, hi-lo)
	for _, id := range db.Entities() {
		for _, m := range db.MetricNames(id) {
			for i, v := range db.RawWindow(id, m, lo, hi) {
				if v == v {
					out[i] = append(out[i], point{id, m, v})
				}
			}
		}
	}
	return out
}

// prefixDB copies the entities, associations, events and first n slices of
// full into a new database.
func prefixDB(full *telemetry.DB, n int) (*telemetry.DB, error) {
	db := telemetry.NewDB(full.IntervalSeconds)
	ids := full.Entities()
	for _, id := range ids {
		e := *full.Entity(id)
		if err := db.AddEntity(&e); err != nil {
			return nil, err
		}
	}
	for _, id := range ids {
		for _, to := range full.OutNeighbors(id) {
			if err := db.Associate(id, to, telemetry.Directed); err != nil {
				return nil, err
			}
		}
	}
	for t, sl := range slicesOf(full, 0, n) {
		for _, p := range sl {
			if err := db.Observe(p.entity, p.metric, t, p.value); err != nil {
				return nil, err
			}
		}
	}
	for _, ev := range full.EventsSince(0) {
		if ev.Slice < n {
			if err := db.RecordEvent(ev); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// incident is the social-network contention incident the daemon workloads
// triage: a CPU fault on one container of the DeathStarBench social-network
// topology (microsim.Contention), preloaded up to a few slices into the fault
// and then streamed slice by slice while the fault stays active.
type incident struct {
	// snapshot is the preloaded database as a murphyd -snapshot file.
	snapshot string
	// tail holds the streamed slices: the fault period, repeated as needed.
	tail []slicePoints
	app  string
	// symptoms are the incident's most anomalous (entity, metric) pairs at
	// the last preloaded slice, one per entity (anomaly.ScanApp).
	symptoms []telemetry.Symptom
	// accept is the relaxed ground truth (§6.1) the accuracy harness uses:
	// the faulty container and its service. The social network runs every
	// service on one node, so accepting the node would accept every
	// incident's node.
	accept map[telemetry.EntityID]bool
}

const (
	incidentSteps = 400
	// incidentLead is how many fault slices the preloaded database holds.
	incidentLead = 8
)

// socialIncident generates the incident and writes its snapshot to path.
func socialIncident(seed int64, nSymptoms, tailLen int, path string) (*incident, error) {
	sc, err := microsim.Contention(microsim.ContentionOptions{
		Topo: "social", Steps: incidentSteps, PriorIncidents: 4,
		Kind: microsim.FaultCPU, Intensity: 0.55, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	full := sc.Result.DB
	preload := sc.FaultStart + incidentLead
	db, err := prefixDB(full, preload)
	if err != nil {
		return nil, err
	}
	inc := &incident{
		snapshot: path,
		app:      microsim.SocialNetwork().App,
		accept:   evalx.AcceptSet([]telemetry.EntityID{sc.TruthEntity}, sc.Acceptable),
	}
	fault := slicesOf(full, preload, full.Len())
	for i := 0; i < tailLen; i++ {
		inc.tail = append(inc.tail, fault[i%len(fault)])
	}
	seen := map[telemetry.EntityID]bool{}
	for _, s := range anomaly.NewDetector().ScanApp(db, inc.app, db.Len()-1) {
		if len(inc.symptoms) == nSymptoms {
			break
		}
		if !seen[s.Entity] {
			seen[s.Entity] = true
			inc.symptoms = append(inc.symptoms, s.Symptom)
		}
	}
	if len(inc.symptoms) == 0 {
		return nil, fmt.Errorf("incident seed %d: anomaly scan found no symptoms", seed)
	}
	f, err := os.Create(inc.snapshot)
	if err != nil {
		return nil, err
	}
	if err := db.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return inc, nil
}

// faultSeeds returns one incident seed per fault location: for every
// service the social-network contention scenario can fault, the first of
// seeds base, base+1, ..., base+probes-1 that faults it, in the order of the
// faulted containers. Working one incident per location, rather than a
// random few, keeps a run's diagnosis cost from depending on where the seed
// happens to put the fault. The fault location is the scenario's first
// random draw, so a short emulation finds it.
func faultSeeds(base int64, probes int) ([]int64, error) {
	first := map[telemetry.EntityID]int64{}
	var truths []telemetry.EntityID
	for k := 0; k < probes; k++ {
		seed := base + int64(k)
		sc, err := microsim.Contention(microsim.ContentionOptions{Topo: "social", Steps: 60, Kind: microsim.FaultCPU, Intensity: 0.55, Seed: seed})
		if err != nil {
			return nil, err
		}
		if _, ok := first[sc.TruthEntity]; !ok {
			first[sc.TruthEntity] = seed
			truths = append(truths, sc.TruthEntity)
		}
	}
	sort.Slice(truths, func(i, j int) bool { return truths[i] < truths[j] })
	seeds := make([]int64, len(truths))
	for i, t := range truths {
		seeds[i] = first[t]
	}
	return seeds, nil
}

// loadSnapshot reads the preloaded database the way murphyd does.
func (inc *incident) loadSnapshot() (*telemetry.DB, error) {
	f, err := os.Open(inc.snapshot)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadJSON(f)
}

// fleet is the enterprise environment of the fleet-whatif workload: the
// first preload slices of an enterprise.Generate fleet form the database a
// session starts from (base, cloned per pass), and the following slices are
// streamed one per round. It keeps only what the script needs, so the
// generator's own database is garbage once newFleet returns.
type fleet struct {
	base *telemetry.DB
	tail []slicePoints
	apps []string
	// web, dbVM and flow are each app's web VM, database VM and client flow.
	web, dbVM, flow []telemetry.EntityID
}

// newFleet generates the fleet. A demand surge on app 0 starts shortly
// before the end of the preloaded slices and lasts through the stream, so
// the symptom scan has something to find.
func newFleet(seed int64, apps, preload, tailLen int) (*fleet, error) {
	gen := enterprise.DefaultGenOptions()
	gen.Apps = apps
	gen.Hosts = apps + 2
	gen.MaxVMsPerTier = 1
	gen.Steps = preload + tailLen
	gen.Seed = seed
	env, err := enterprise.Generate(gen)
	if err != nil {
		return nil, err
	}
	surge := preload - 10
	if err := env.Run(func(e *enterprise.Env, st *enterprise.StepState) {
		if st.T() >= surge {
			st.ScaleDemand(0, 3)
		}
	}); err != nil {
		return nil, err
	}
	base, err := prefixDB(env.DB, preload)
	if err != nil {
		return nil, err
	}
	fl := &fleet{base: base, tail: slicesOf(env.DB, preload, env.DB.Len()), apps: env.AppNames()}
	for i := range fl.apps {
		fl.web = append(fl.web, env.WebVM(i))
		fl.dbVM = append(fl.dbVM, env.DBVM(i))
		fl.flow = append(fl.flow, env.ClientFlow(i))
	}
	return fl, nil
}

// question is one what-if a capacity planner asks: scale an app's client
// flow and read the predicted CPU of one of its VMs.
type question struct {
	app    int
	factor float64
	target telemetry.EntityID
}

// roundQuestions draws a round's two questions: one app, one load factor,
// asked of its web VM and then of its database VM.
func (f *fleet) roundQuestions(rng *rand.Rand) [2]question {
	factors := []float64{0.5, 0.75, 1.25, 1.5, 2}
	a := rng.Intn(len(f.apps))
	k := factors[rng.Intn(len(factors))]
	return [2]question{
		{app: a, factor: k, target: f.web[a]},
		{app: a, factor: k, target: f.dbVM[a]},
	}
}

// overrides builds a question's intervention from the latest slice of db.
func (f *fleet) overrides(db *telemetry.DB, q question) map[telemetry.EntityID]map[string]float64 {
	flow := f.flow[q.app]
	now := db.Len() - 1
	return map[telemetry.EntityID]map[string]float64{
		flow: {
			telemetry.MetricThroughput: db.At(flow, telemetry.MetricThroughput, now) * q.factor,
			telemetry.MetricSessions:   db.At(flow, telemetry.MetricSessions, now) * q.factor,
		},
	}
}
