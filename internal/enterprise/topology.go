// Package enterprise emulates the production environment the paper draws its
// datasets from: a private cloud of hosts, VMs, vNICs, ToR switches and
// ports, datastores, and TCP flows, monitored by an Aria-Operations-like
// platform. Metric dynamics are coupled — VM load follows incoming flows,
// host CPU aggregates its VMs and feeds back into their latency, switch-port
// congestion inflates flow RTT — so the relationship graph carries genuine
// cyclic influence (§2.2). On top of the generator sit the 13-incident
// library mirroring Table 1 and the large multi-app metrics dataset used by
// the model-selection and cyclic-effects micro-benchmarks (Fig 8a/8b).
package enterprise

import (
	"fmt"
	"math/rand"

	"murphy/internal/telemetry"
)

// GenOptions sizes the generated environment.
type GenOptions struct {
	// Apps is the number of applications.
	Apps int
	// Hosts is the size of the shared host pool.
	Hosts int
	// Switches is the number of ToR switches (each host connects to one
	// port of one switch).
	Switches int
	// MaxVMsPerTier caps the random per-tier VM count (min is 1).
	MaxVMsPerTier int
	// Steps is the number of 10-minute slices to simulate (one week ≈ 1008).
	Steps int
	// Seed drives topology layout and metric noise.
	Seed int64
}

// DefaultGenOptions returns a small but structurally complete environment.
func DefaultGenOptions() GenOptions {
	return GenOptions{Apps: 6, Hosts: 8, Switches: 2, MaxVMsPerTier: 2, Steps: 320, Seed: 1}
}

// vmRef ties a VM to its supporting entities.
type vmRef struct {
	vm, vnic telemetry.EntityID
	host     int
	// loadShare is this VM's share of its tier's load.
	loadShare float64
}

// flowRef is one inter-entity TCP flow.
type flowRef struct {
	id       telemetry.EntityID
	src, dst int // indices into app.vms, or -1 for the client
	// ports the flow traverses (switch ports of src/dst hosts).
	bytesPerReq float64
}

// appTopo is one generated application.
type appTopo struct {
	name string
	// client is the external client VM (e.g. a crawler); clientFlow is the
	// flow from it to the web tier.
	client     telemetry.EntityID
	clientFlow telemetry.EntityID
	// vms lists all VMs: web tier first, then app, then db.
	vms   []vmRef
	webIx []int
	appIx []int
	dbIx  []int
	flows []flowRef
	// demand parameters.
	baseDemand float64
	phase      float64
	datastore  telemetry.EntityID
	// lastFlowBytes caches per-flow throughput for the slice being recorded.
	lastFlowBytes map[telemetry.EntityID]float64
}

// hostInfo is one shared physical host.
type hostInfo struct {
	id       telemetry.EntityID
	pnic     telemetry.EntityID
	switchIx int
	port     telemetry.EntityID
	capacity float64 // CPU capacity in load units
}

// Env is a generated enterprise environment, pre-incident.
type Env struct {
	Opts  GenOptions
	DB    *telemetry.DB
	apps  []*appTopo
	hosts []*hostInfo
	rng   *rand.Rand
}

// AppNames returns the generated application names in order.
func (e *Env) AppNames() []string {
	out := make([]string, len(e.apps))
	for i, a := range e.apps {
		out[i] = a.name
	}
	return out
}

// DBVM returns the first database-tier VM of app i (the "backend SQL server"
// of Appendix A.2).
func (e *Env) DBVM(appIx int) telemetry.EntityID {
	a := e.apps[appIx]
	return a.vms[a.dbIx[0]].vm
}

// Client returns the external client VM of app i (the crawler of Fig 1).
func (e *Env) Client(appIx int) telemetry.EntityID { return e.apps[appIx].client }

// ClientFlow returns the client→web flow of app i.
func (e *Env) ClientFlow(appIx int) telemetry.EntityID { return e.apps[appIx].clientFlow }

// FrontendFlows returns the flows of app i that send requests into the web
// (front-end) tier — the flow population Appendix A.2 draws its perturbed
// top-5 from. In this topology that is the client flow; environments with
// several external clients would return several.
func (e *Env) FrontendFlows(appIx int) []telemetry.EntityID {
	return []telemetry.EntityID{e.apps[appIx].clientFlow}
}

// WebVM returns the first web-tier VM of app i.
func (e *Env) WebVM(appIx int) telemetry.EntityID {
	a := e.apps[appIx]
	return a.vms[a.webIx[0]].vm
}

// Generate lays out the topology and registers all entities and
// associations; metrics are produced by Run.
func Generate(opts GenOptions) (*Env, error) {
	if opts.Apps < 1 || opts.Hosts < 1 || opts.Switches < 1 {
		return nil, fmt.Errorf("enterprise: need at least 1 app, host, and switch")
	}
	if opts.MaxVMsPerTier < 1 {
		opts.MaxVMsPerTier = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	db := telemetry.NewDB(600)
	env := &Env{Opts: opts, DB: db, rng: rng}

	// Switches and per-host ports.
	switches := make([]telemetry.EntityID, opts.Switches)
	for i := range switches {
		sid := telemetry.EntityID(fmt.Sprintf("switch-%d", i))
		switches[i] = sid
		if err := db.AddEntity(&telemetry.Entity{ID: sid, Type: telemetry.TypeSwitch, Name: string(sid)}); err != nil {
			return nil, err
		}
	}
	for h := 0; h < opts.Hosts; h++ {
		hid := telemetry.EntityID(fmt.Sprintf("host-%d", h))
		pnic := telemetry.EntityID(fmt.Sprintf("pnic-%d", h))
		swIx := h % opts.Switches
		port := telemetry.EntityID(fmt.Sprintf("swport-%d-%d", swIx, h))
		for _, e := range []*telemetry.Entity{
			{ID: hid, Type: telemetry.TypeHost, Name: string(hid)},
			{ID: pnic, Type: telemetry.TypePhysNIC, Name: string(pnic)},
			{ID: port, Type: telemetry.TypeSwitchPort, Name: string(port)},
		} {
			if err := db.AddEntity(e); err != nil {
				return nil, err
			}
		}
		for _, pair := range [][2]telemetry.EntityID{{hid, pnic}, {pnic, port}, {port, switches[swIx]}} {
			if err := db.Associate(pair[0], pair[1], telemetry.Bidirectional); err != nil {
				return nil, err
			}
		}
		env.hosts = append(env.hosts, &hostInfo{
			id: hid, pnic: pnic, switchIx: swIx, port: port,
			capacity: 3 + rng.Float64()*2,
		})
	}

	nextHost := 0
	place := func() int {
		h := nextHost % opts.Hosts
		nextHost++
		return h
	}

	for ai := 0; ai < opts.Apps; ai++ {
		app := &appTopo{
			name:       fmt.Sprintf("app-%02d", ai),
			baseDemand: 40 + rng.Float64()*60,
			phase:      rng.Float64() * 6.28,
		}
		addVM := func(tier string, k int) (int, error) {
			vmID := telemetry.EntityID(fmt.Sprintf("%s/%s-vm-%d", app.name, tier, k))
			nicID := telemetry.EntityID(fmt.Sprintf("%s/%s-vnic-%d", app.name, tier, k))
			h := place()
			if err := db.AddEntity(&telemetry.Entity{ID: vmID, Type: telemetry.TypeVM, Name: string(vmID), App: app.name, Tier: tier}); err != nil {
				return 0, err
			}
			if err := db.AddEntity(&telemetry.Entity{ID: nicID, Type: telemetry.TypeVirtualNIC, Name: string(nicID), App: app.name}); err != nil {
				return 0, err
			}
			for _, pair := range [][2]telemetry.EntityID{{vmID, nicID}, {vmID, env.hosts[h].id}, {nicID, env.hosts[h].pnic}} {
				if err := db.Associate(pair[0], pair[1], telemetry.Bidirectional); err != nil {
					return 0, err
				}
			}
			app.vms = append(app.vms, vmRef{vm: vmID, vnic: nicID, host: h})
			return len(app.vms) - 1, nil
		}
		tierCount := func() int { return 1 + rng.Intn(opts.MaxVMsPerTier) }
		for k, n := 0, tierCount(); k < n; k++ {
			ix, err := addVM("web", k)
			if err != nil {
				return nil, err
			}
			app.webIx = append(app.webIx, ix)
		}
		for k, n := 0, tierCount(); k < n; k++ {
			ix, err := addVM("app", k)
			if err != nil {
				return nil, err
			}
			app.appIx = append(app.appIx, ix)
		}
		for k, n := 0, tierCount(); k < n; k++ {
			ix, err := addVM("db", k)
			if err != nil {
				return nil, err
			}
			app.dbIx = append(app.dbIx, ix)
		}
		for tierIxs, share := range map[*[]int]float64{&app.webIx: 1, &app.appIx: 1, &app.dbIx: 1} {
			for _, ix := range *tierIxs {
				app.vms[ix].loadShare = share / float64(len(*tierIxs))
			}
		}
		// Client VM + flow into the web tier.
		app.client = telemetry.EntityID(app.name + "/client-vm")
		app.clientFlow = telemetry.EntityID(app.name + "/flow-client-web")
		if err := db.AddEntity(&telemetry.Entity{ID: app.client, Type: telemetry.TypeVM, Name: string(app.client), App: app.name, Tier: "client"}); err != nil {
			return nil, err
		}
		if err := db.AddEntity(&telemetry.Entity{ID: app.clientFlow, Type: telemetry.TypeFlow, Name: string(app.clientFlow), App: app.name}); err != nil {
			return nil, err
		}
		if err := db.Associate(app.client, app.clientFlow, telemetry.Bidirectional); err != nil {
			return nil, err
		}
		if err := db.Associate(app.clientFlow, app.vms[app.webIx[0]].vm, telemetry.Bidirectional); err != nil {
			return nil, err
		}
		// Flows are also related to their endpoints' vNICs, as the platform
		// records; together with the VM↔vNIC edge this yields the
		// 3-cycles §2.2 reports as pervasive.
		if err := db.Associate(app.clientFlow, app.vms[app.webIx[0]].vnic, telemetry.Bidirectional); err != nil {
			return nil, err
		}
		// Inter-tier flows: each web VM to first app VM, each app VM to
		// first db VM.
		addFlow := func(srcIx, dstIx int, label string) error {
			fid := telemetry.EntityID(fmt.Sprintf("%s/flow-%s", app.name, label))
			if err := db.AddEntity(&telemetry.Entity{ID: fid, Type: telemetry.TypeFlow, Name: string(fid), App: app.name}); err != nil {
				return err
			}
			if err := db.Associate(app.vms[srcIx].vm, fid, telemetry.Bidirectional); err != nil {
				return err
			}
			if err := db.Associate(fid, app.vms[dstIx].vm, telemetry.Bidirectional); err != nil {
				return err
			}
			if err := db.Associate(fid, app.vms[srcIx].vnic, telemetry.Bidirectional); err != nil {
				return err
			}
			if err := db.Associate(fid, app.vms[dstIx].vnic, telemetry.Bidirectional); err != nil {
				return err
			}
			app.flows = append(app.flows, flowRef{id: fid, src: srcIx, dst: dstIx, bytesPerReq: 1200 + rng.Float64()*800})
			return nil
		}
		for i, w := range app.webIx {
			if err := addFlow(w, app.appIx[i%len(app.appIx)], fmt.Sprintf("web%d-app", i)); err != nil {
				return nil, err
			}
		}
		for i, a := range app.appIx {
			if err := addFlow(a, app.dbIx[i%len(app.dbIx)], fmt.Sprintf("app%d-db", i)); err != nil {
				return nil, err
			}
		}
		// Datastore backing the db tier.
		app.datastore = telemetry.EntityID(app.name + "/datastore")
		if err := db.AddEntity(&telemetry.Entity{ID: app.datastore, Type: telemetry.TypeDatastore, Name: string(app.datastore), App: app.name}); err != nil {
			return nil, err
		}
		if err := db.Associate(app.vms[app.dbIx[0]].vm, app.datastore, telemetry.Bidirectional); err != nil {
			return nil, err
		}
		env.apps = append(env.apps, app)
	}
	return env, nil
}
