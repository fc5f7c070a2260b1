// Package explain generates the human-readable explanation chains of §4.3:
// every entity gets a coarse label from its current metrics and conservative
// thresholds, a small state machine encodes which label can cause which, and
// chains are traced from a root cause to the symptom entity such that every
// hop respects the causality rules. Explanations never change which root
// causes are selected; they only justify them.
package explain

import (
	"fmt"
	"strings"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// Label is the coarse health state assigned to an entity.
type Label int

const (
	// Okay means no threshold is exceeded.
	Okay Label = iota
	// HeavyHitter marks abnormally high offered load (throughput, sessions,
	// request rate, CPU-consuming load).
	HeavyHitter
	// HighDropRate marks packet drops or loss above threshold.
	HighDropRate
	// Degraded marks degraded performance: high latency or RTT.
	Degraded
	// NonFunctional marks a component that is down or unresponsive.
	NonFunctional
)

// String renders the label as in the paper's Figure 4.
func (l Label) String() string {
	switch l {
	case Okay:
		return "okay"
	case HeavyHitter:
		return "heavy hitter"
	case HighDropRate:
		return "high drop rate"
	case Degraded:
		return "degraded performance"
	case NonFunctional:
		return "non-functional"
	default:
		return fmt.Sprintf("label(%d)", int(l))
	}
}

// Thresholds are the conservative labeling thresholds (paper footnote 7:
// 25% CPU/memory/disk/port utilization, 0.1% drop rate, 50 TCP sessions or
// high byte count per interval).
type Thresholds struct {
	Utilization float64 // CPU/mem/disk/port utilization fraction exceeded
	DropRate    float64 // drop/loss rate exceeded
	Sessions    float64 // TCP session count exceeded
	Throughput  float64 // bytes per interval exceeded
	LatencyZ    float64 // latency z-score (vs history) exceeded
	LoadZ       float64 // load-ish metric z-score exceeded
}

// DefaultThresholds mirrors the paper's conservative settings.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Utilization: 0.25,
		DropRate:    0.001,
		Sessions:    50,
		Throughput:  1e9,
		LatencyZ:    2.0,
		LoadZ:       2.0,
	}
}

// canCause is the state machine of Figure 4: arrows indicate causal truths
// such as "a heavy-hitter flow can cause a high drop rate on a virtual NIC"
// or "a heavy hitter can cause high load on a VM".
var canCause = map[Label][]Label{
	HeavyHitter:   {HeavyHitter, HighDropRate, Degraded, NonFunctional},
	HighDropRate:  {Degraded, NonFunctional},
	Degraded:      {Degraded, NonFunctional},
	NonFunctional: {NonFunctional, Degraded},
}

// CanCause reports whether an entity labeled from can causally explain an
// entity labeled to.
func CanCause(from, to Label) bool {
	for _, l := range canCause[from] {
		if l == to {
			return true
		}
	}
	return false
}

// Labeler assigns labels from a trained model's current metric values.
type Labeler struct {
	model *core.Model
	db    *telemetry.DB
	th    Thresholds
}

// NewLabeler builds a labeler over the model used for diagnosis.
func NewLabeler(m *core.Model, db *telemetry.DB, th Thresholds) *Labeler {
	return &Labeler{model: m, db: db, th: th}
}

// Label assigns the entity's current label, checking the most severe states
// first so an entity that is both overloaded and dropping reports the more
// actionable cause-side label (heavy hitter beats degraded for flows;
// non-functional beats everything).
func (lb *Labeler) Label(id telemetry.EntityID) Label {
	e := lb.db.Entity(id)
	if e == nil {
		return Okay
	}
	now := lb.model.Now()
	val := func(metric string) (float64, bool) {
		// db.At copies under the DB lock, so labeling stays safe while an
		// ingest goroutine appends fresh slices (absent metrics read as NaN).
		v := lb.db.At(id, metric, now)
		if v != v { // NaN
			return 0, false
		}
		return v, true
	}
	// Non-functional: explicit up==0, or error rate saturated.
	if up, ok := val(telemetry.MetricUp); ok && up == 0 {
		return NonFunctional
	}
	if er, ok := val(telemetry.MetricErrorRate); ok && er >= 0.5 {
		return NonFunctional
	}
	// High drop rate.
	for _, mn := range []string{telemetry.MetricPktDrops, telemetry.MetricLoss} {
		if v, ok := val(mn); ok && v > lb.th.DropRate {
			return HighDropRate
		}
	}
	// Heavy hitter: offered load above absolute or historical thresholds.
	if v, ok := val(telemetry.MetricSessions); ok && v > lb.th.Sessions {
		return HeavyHitter
	}
	if v, ok := val(telemetry.MetricThroughput); ok && v > lb.th.Throughput {
		return HeavyHitter
	}
	for _, mn := range []string{telemetry.MetricRPS, telemetry.MetricThroughput, telemetry.MetricNetTx, telemetry.MetricNetRx, telemetry.MetricSessions} {
		if _, ok := val(mn); ok && lb.model.MetricZ(id, mn) > lb.th.LoadZ {
			return HeavyHitter
		}
	}
	for _, mn := range []string{telemetry.MetricCPU, telemetry.MetricMem, telemetry.MetricDiskUtil, telemetry.MetricBufferUtil, telemetry.MetricSpaceUtil} {
		if v, ok := val(mn); ok && v > lb.th.Utilization && lb.model.MetricZ(id, mn) > lb.th.LoadZ {
			return HeavyHitter
		}
	}
	// Degraded performance: high latency/RTT vs history.
	for _, mn := range []string{telemetry.MetricLatency, telemetry.MetricRTT} {
		if _, ok := val(mn); ok && lb.model.MetricZ(id, mn) > lb.th.LatencyZ {
			return Degraded
		}
	}
	return Okay
}

// Step is one hop of an explanation chain.
type Step struct {
	Entity telemetry.EntityID
	Label  Label
}

// Chain is a causal explanation path from root cause to symptom.
type Chain struct {
	Steps []Step
}

// String renders the chain as the paper's example output format:
// "Entity A (crawler) sent high requests to Entity B (front-end). ...".
func (c Chain) String() string { return c.Render(nil) }

// Render renders the chain, resolving entity names through db when non-nil.
func (c Chain) Render(db *telemetry.DB) string {
	if len(c.Steps) == 0 {
		return "(empty explanation)"
	}
	name := func(id telemetry.EntityID) string {
		if db != nil {
			if e := db.Entity(id); e != nil {
				return e.String()
			}
		}
		return string(id)
	}
	var b strings.Builder
	for i, s := range c.Steps {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s [%s]", name(s.Entity), s.Label)
	}
	return b.String()
}

// Explain traces a causal chain from the root cause to the symptom entity
// along relationship-graph edges such that every hop respects the label
// state machine and no hop passes through an Okay-labeled entity (other than
// possibly the symptom itself, whose problematic metric defines the
// incident). It prefers the shortest such chain; ok is false when none
// exists.
func Explain(lb *Labeler, g *graph.Graph, root, symptom telemetry.EntityID) (Chain, bool) {
	ri, ok := g.Index(root)
	if !ok {
		return Chain{}, false
	}
	si, ok := g.Index(symptom)
	if !ok {
		return Chain{}, false
	}
	labels := make([]Label, g.Len())
	for i, id := range g.IDs() {
		labels[i] = lb.Label(id)
	}
	if labels[ri] == Okay {
		// A root cause that looks Okay cannot anchor a labeled chain.
		return Chain{}, false
	}
	// BFS over label-respecting edges.
	prev := make([]int, g.Len())
	for i := range prev {
		prev[i] = -1
	}
	prev[ri] = ri
	queue := []int{ri}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == si {
			break
		}
		for _, v := range g.Out(u) {
			if prev[v] != -1 {
				continue
			}
			lv := labels[v]
			if v != si && lv == Okay {
				continue
			}
			if v == si && lv == Okay {
				// The symptom entity may not look anomalous under coarse
				// labels even though one metric is problematic; accept the
				// hop if the predecessor can cause degradation.
				if !CanCause(labels[u], Degraded) {
					continue
				}
			} else if !CanCause(labels[u], lv) {
				continue
			}
			prev[v] = u
			queue = append(queue, v)
		}
	}
	if prev[si] == -1 && ri != si {
		return Chain{}, false
	}
	// Reconstruct.
	var idxPath []int
	for v := si; ; v = prev[v] {
		idxPath = append(idxPath, v)
		if v == ri {
			break
		}
	}
	ch := Chain{}
	for i := len(idxPath) - 1; i >= 0; i-- {
		v := idxPath[i]
		ch.Steps = append(ch.Steps, Step{Entity: g.ID(v), Label: labels[v]})
	}
	return ch, true
}
