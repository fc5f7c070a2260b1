package enterprise

import (
	"fmt"
	"math"

	"murphy/internal/telemetry"
)

// StepState is the mutable per-slice simulation state an incident can hook.
type StepState struct {
	t int
	// demand per app (requests per second offered by the app's client).
	demand []float64
	// extraVMCPU / extraVMMem / extraVMDisk add load to specific VMs.
	extraVMCPU  map[telemetry.EntityID]float64
	extraVMMem  map[telemetry.EntityID]float64
	extraVMDisk map[telemetry.EntityID]float64
	// down marks entities as non-functional this slice.
	down map[telemetry.EntityID]bool
	// extraFlowBytes adds raw throughput to specific flows.
	extraFlowBytes map[telemetry.EntityID]float64
	// extraPortLoad adds traffic to specific switch ports.
	extraPortLoad map[telemetry.EntityID]float64
}

// Hook mutates the simulation state at each slice; incidents are hooks.
type Hook func(env *Env, st *StepState)

// Run simulates the environment for opts.Steps slices, applying the given
// hooks each step, and fills the env's telemetry database. It can be called
// once per generated Env.
func (e *Env) Run(hooks ...Hook) error {
	if e.DB.Len() != 0 {
		return fmt.Errorf("enterprise: Run called twice on the same Env")
	}
	rng := e.rng
	for t := 0; t < e.Opts.Steps; t++ {
		st := &StepState{
			t:              t,
			demand:         make([]float64, len(e.apps)),
			extraVMCPU:     map[telemetry.EntityID]float64{},
			extraVMMem:     map[telemetry.EntityID]float64{},
			extraVMDisk:    map[telemetry.EntityID]float64{},
			down:           map[telemetry.EntityID]bool{},
			extraFlowBytes: map[telemetry.EntityID]float64{},
			extraPortLoad:  map[telemetry.EntityID]float64{},
		}
		// Diurnal demand with noise (144 slices per day at 10-minute grain).
		for ai, app := range e.apps {
			d := app.baseDemand * (1 + 0.3*math.Sin(2*math.Pi*float64(t)/144+app.phase))
			d += rng.NormFloat64() * app.baseDemand * 0.04
			if d < 0 {
				d = 0
			}
			st.demand[ai] = d
		}
		for _, h := range hooks {
			h(e, st)
		}
		if err := e.record(st); err != nil {
			return err
		}
	}
	return nil
}

// record computes all coupled metrics for one slice and writes them.
func (e *Env) record(st *StepState) error {
	rng := e.rng
	t := st.t
	// Raw VM load per app tier.
	vmCPU := map[telemetry.EntityID]float64{}
	vmNet := map[telemetry.EntityID]float64{}
	hostLoad := make([]float64, len(e.hosts))
	portLoad := map[telemetry.EntityID]float64{}

	for ai, app := range e.apps {
		d := st.demand[ai]
		tierFactor := map[string]float64{"web": 0.0020, "app": 0.0028, "db": 0.0024}
		rawCPU := func(vr vmRef, tier string) float64 {
			load := d * vr.loadShare * tierFactor[tier]
			cpu := 0.08 + load + st.extraVMCPU[vr.vm]
			if st.down[vr.vm] {
				cpu = 0.01
			}
			return cpu
		}
		// Database tier first: a saturated db tier backs requests up into
		// the web/app tiers (queueing backpressure), one of the couplings
		// that make influence genuinely bidirectional across tiers.
		dbStress := 0.0
		for _, ix := range app.dbIx {
			vr := app.vms[ix]
			cpu := rawCPU(vr, "db")
			vmCPU[vr.vm] = cpu
			hostLoad[vr.host] += cpu
			if cpu > dbStress {
				dbStress = cpu
			}
		}
		backpressure := 0.0
		if dbStress > 0.85 {
			backpressure = (dbStress - 0.85) * 1.5
		}
		for _, tier := range []struct {
			name string
			ixs  []int
		}{{"web", app.webIx}, {"app", app.appIx}} {
			for _, ix := range tier.ixs {
				vr := app.vms[ix]
				cpu := rawCPU(vr, tier.name)
				if !st.down[vr.vm] {
					cpu += backpressure
				}
				vmCPU[vr.vm] = cpu
				hostLoad[vr.host] += cpu
			}
		}
		// Flows.
		flowBytes := map[telemetry.EntityID]float64{}
		flowBytes[app.clientFlow] = d*1500 + st.extraFlowBytes[app.clientFlow]
		for _, fl := range app.flows {
			flowBytes[fl.id] = d*fl.bytesPerReq + st.extraFlowBytes[fl.id]
		}
		// Net accounting on the client endpoint: the client terminates every
		// flow of its app. Summed in declaration order (client flow first,
		// then the inter-tier flows) rather than by ranging over the map, so
		// equal seeds replay to bit-identical telemetry — float addition is
		// not associative and map iteration order is randomized.
		vmNet[app.client] += flowBytes[app.clientFlow]
		for _, fl := range app.flows {
			vmNet[app.client] += flowBytes[fl.id]
		}
		// vNIC/net per VM: sum of adjacent flow bytes.
		addNet := func(vmIx int, b float64) {
			vmNet[app.vms[vmIx].vm] += b
			portLoad[e.hosts[app.vms[vmIx].host].port] += b
		}
		addNet(app.webIx[0], flowBytes[app.clientFlow])
		for _, fl := range app.flows {
			addNet(fl.src, flowBytes[fl.id])
			addNet(fl.dst, flowBytes[fl.id])
		}
		app.lastFlowBytes = flowBytes
	}
	for pid, extra := range st.extraPortLoad {
		portLoad[pid] += extra
	}

	// Host utilization and the contention feedback factor.
	hostUtil := make([]float64, len(e.hosts))
	for i, h := range e.hosts {
		hostUtil[i] = hostLoad[i] / h.capacity
	}
	// Port congestion.
	portUtil := map[telemetry.EntityID]float64{}
	for _, h := range e.hosts {
		portUtil[h.port] = portLoad[h.port] / 4e5 // port capacity in bytes/slice-second
	}

	noise := func(v, frac float64) float64 { return v * (1 + rng.NormFloat64()*frac) }
	obs := func(id telemetry.EntityID, m string, v float64) error {
		return e.DB.Observe(id, m, t, v)
	}

	// Write host / pnic / port / switch metrics.
	switchDrops := map[int]float64{}
	for i, h := range e.hosts {
		u := clamp01(noise(hostUtil[i], 0.03))
		if err := obs(h.id, telemetry.MetricCPU, u); err != nil {
			return err
		}
		if err := obs(h.id, telemetry.MetricMem, clamp01(0.3+0.4*u)); err != nil {
			return err
		}
		pu := portUtil[h.port]
		drops := 0.0
		if pu > 0.8 {
			drops = (pu - 0.8) * 0.05
		}
		if err := obs(h.pnic, telemetry.MetricNetTx, noise(portLoad[h.port], 0.03)); err != nil {
			return err
		}
		if err := obs(h.pnic, telemetry.MetricPktDrops, drops); err != nil {
			return err
		}
		if err := obs(h.port, telemetry.MetricNetTx, noise(portLoad[h.port], 0.03)); err != nil {
			return err
		}
		if err := obs(h.port, telemetry.MetricBufferUtil, clamp01(noise(pu, 0.05))); err != nil {
			return err
		}
		if err := obs(h.port, telemetry.MetricPktDrops, drops); err != nil {
			return err
		}
		switchDrops[h.switchIx] += drops
	}
	for si := 0; si < e.Opts.Switches; si++ {
		sid := telemetry.EntityID(fmt.Sprintf("switch-%d", si))
		if err := obs(sid, telemetry.MetricPktDrops, switchDrops[si]); err != nil {
			return err
		}
	}

	// Write app entities.
	for ai, app := range e.apps {
		d := st.demand[ai]
		for _, vr := range app.vms {
			hostU := hostUtil[vr.host]
			contention := 0.0
			if hostU > 0.8 {
				contention = (hostU - 0.8) * 3
			}
			cpu := clamp01(noise(vmCPU[vr.vm]*(1+contention), 0.03))
			mem := clamp01(noise(0.35+0.15*cpu+st.extraVMMem[vr.vm], 0.02))
			dsk := noise(2+10*cpu+st.extraVMDisk[vr.vm]*50, 0.05)
			up := 1.0
			if st.down[vr.vm] {
				up, cpu = 0, 0.01
			}
			for m, v := range map[string]float64{
				telemetry.MetricCPU: cpu, telemetry.MetricMem: mem,
				telemetry.MetricDiskRead: dsk, telemetry.MetricDiskWrite: dsk * 0.6,
				telemetry.MetricNetTx: noise(vmNet[vr.vm]*0.5, 0.03),
				telemetry.MetricNetRx: noise(vmNet[vr.vm]*0.5, 0.03),
				telemetry.MetricUp:    up,
			} {
				if err := obs(vr.vm, m, v); err != nil {
					return err
				}
			}
			if err := obs(vr.vnic, telemetry.MetricNetTx, noise(vmNet[vr.vm]*0.5, 0.03)); err != nil {
				return err
			}
			if err := obs(vr.vnic, telemetry.MetricNetRx, noise(vmNet[vr.vm]*0.5, 0.03)); err != nil {
				return err
			}
			nicDrops := 0.0
			if vmNet[vr.vm] > 3e5 {
				nicDrops = (vmNet[vr.vm] - 3e5) / 3e6
			}
			if err := obs(vr.vnic, telemetry.MetricPktDrops, nicDrops); err != nil {
				return err
			}
		}
		// Client VM.
		cvm := map[string]float64{
			telemetry.MetricCPU:   clamp01(noise(0.1+0.002*d, 0.03)),
			telemetry.MetricMem:   clamp01(noise(0.3, 0.02)),
			telemetry.MetricNetTx: noise(app.lastFlowBytes[app.clientFlow], 0.03),
			telemetry.MetricNetRx: noise(app.lastFlowBytes[app.clientFlow]*0.2, 0.03),
			telemetry.MetricUp:    1,
		}
		if st.down[app.client] {
			cvm[telemetry.MetricUp] = 0
		}
		for m, v := range cvm {
			if err := obs(app.client, m, v); err != nil {
				return err
			}
		}
		// Flows: throughput, sessions, and RTT inflated by congestion on the
		// destination host's port and by destination host contention — the
		// cyclic coupling of §2.2.
		writeFlow := func(fid telemetry.EntityID, bytes float64, dstHost int) error {
			pu := portUtil[e.hosts[dstHost].port]
			hu := hostUtil[dstHost]
			rtt := 2 + 30*pu*pu
			if hu > 0.85 {
				rtt += (hu - 0.85) * 40
			}
			loss := 0.0
			if pu > 0.8 {
				loss = (pu - 0.8) * 0.02
			}
			for m, v := range map[string]float64{
				telemetry.MetricThroughput: noise(bytes, 0.03),
				telemetry.MetricSessions:   noise(bytes/3000, 0.05),
				telemetry.MetricRTT:        noise(rtt, 0.05),
				telemetry.MetricLoss:       loss,
				telemetry.MetricRetransmit: loss * 2,
			} {
				if err := obs(fid, m, v); err != nil {
					return err
				}
			}
			return nil
		}
		if err := writeFlow(app.clientFlow, app.lastFlowBytes[app.clientFlow], app.vms[app.webIx[0]].host); err != nil {
			return err
		}
		for _, fl := range app.flows {
			if err := writeFlow(fl.id, app.lastFlowBytes[fl.id], app.vms[fl.dst].host); err != nil {
				return err
			}
		}
		// Datastore follows the db tier's disk activity.
		dbDisk := 0.0
		for _, ix := range app.dbIx {
			dbDisk += 2 + 10*vmCPU[app.vms[ix].vm] + st.extraVMDisk[app.vms[ix].vm]*50
		}
		for m, v := range map[string]float64{
			telemetry.MetricSpaceUtil: clamp01(noise(0.5+0.002*dbDisk, 0.01)),
			telemetry.MetricDiskRead:  noise(dbDisk, 0.04),
			telemetry.MetricDiskWrite: noise(dbDisk*0.7, 0.04),
		} {
			if err := obs(app.datastore, m, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// T returns the current time slice a hook is running at.
func (st *StepState) T() int { return st.t }

// ScaleDemand multiplies application appIx's offered demand this slice.
func (st *StepState) ScaleDemand(appIx int, factor float64) {
	if appIx >= 0 && appIx < len(st.demand) {
		st.demand[appIx] *= factor
	}
}
