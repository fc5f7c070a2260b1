// Package telemetry models the monitoring substrate Murphy consumes: typed
// entities (VMs, hosts, containers, flows, NICs, switch ports, services, …),
// per-entity metric time series on a shared slice grid, and the loose
// metadata associations between entities ("VM v1 is on host h5 and has a TCP
// connection to v2"). The in-memory MonitoringDB stands in for the
// application-aware network observability platform the paper collects its
// production data from; everything downstream (graph construction, Murphy,
// and the baselines) sees only this interface.
package telemetry

import "fmt"

// EntityID uniquely identifies an entity inside a MonitoringDB.
type EntityID string

// EntityType classifies an entity. The catalog mirrors the entity table in
// §2.1 of the paper.
type EntityType string

// Entity types known to the monitoring platform.
const (
	TypeVM         EntityType = "vm"
	TypeHost       EntityType = "host"
	TypeContainer  EntityType = "container"
	TypeService    EntityType = "service"
	TypeVirtualNIC EntityType = "vnic"
	TypePhysNIC    EntityType = "pnic"
	TypeFlow       EntityType = "flow"
	TypeSwitch     EntityType = "switch"
	TypeSwitchPort EntityType = "switchport"
	TypeDatastore  EntityType = "datastore"
	TypeClient     EntityType = "client"
	TypeNode       EntityType = "node" // a Kubernetes/worker node in the microservice setup
)

// Common metric names. Not every entity type carries every metric; the
// catalog below records the usual set per type.
const (
	MetricCPU        = "cpu_util"
	MetricMem        = "mem_util"
	MetricDiskRead   = "disk_read"
	MetricDiskWrite  = "disk_write"
	MetricDiskUtil   = "disk_util"
	MetricNetTx      = "net_tx"
	MetricNetRx      = "net_rx"
	MetricPktDrops   = "pkt_drops"
	MetricLatency    = "latency"
	MetricRPS        = "rps"
	MetricErrorRate  = "error_rate"
	MetricThroughput = "throughput"
	MetricSessions   = "session_count"
	MetricRTT        = "rtt"
	MetricLoss       = "packet_loss"
	MetricRetransmit = "retransmit_ratio"
	MetricBufferUtil = "buffer_util"
	MetricSpaceUtil  = "space_util"
	MetricUp         = "up"
)

// Entity is one monitored object with its identifying metadata.
type Entity struct {
	ID   EntityID
	Type EntityType
	// Name is the human-readable name shown in explanations.
	Name string
	// App is the application this entity is tagged as belonging to
	// (operators tag or auto-classify VMs into applications, §2.1).
	App string
	// Tier is the application tier (web, app, db, ...), when defined.
	Tier string
	// Attrs holds any additional platform metadata.
	Attrs map[string]string
}

// String renders the entity as "type:name" for logs and explanations.
func (e *Entity) String() string {
	if e == nil {
		return "<nil entity>"
	}
	return fmt.Sprintf("%s:%s", e.Type, e.Name)
}

// Symptom is a problematic (entity, metric) pair — the input to diagnosis.
// The JSON tags are part of the public report schema (murphy.Report).
type Symptom struct {
	Entity EntityID `json:"entity"`
	Metric string   `json:"metric"`
	// High records the direction of the anomaly: true when the metric is
	// abnormally high (the common case: CPU, latency, drops), false when
	// abnormally low (e.g. throughput collapse).
	High bool `json:"high"`
}

// String renders the symptom for logs.
func (s Symptom) String() string {
	dir := "high"
	if !s.High {
		dir = "low"
	}
	return fmt.Sprintf("%s %s on %s", dir, s.Metric, s.Entity)
}
