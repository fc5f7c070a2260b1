package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"murphy/internal/stats"
)

// span is one timed call into a layer, or the root span of one script
// operation. Spans stay in memory until the run writes them out.
type span struct {
	Name string `json:"name"`
	// Op is the script operation the span belongs to; Kind its op kind.
	Op   int    `json:"op"`
	Kind string `json:"kind"`
	// Parent indexes the operation's root span; -1 marks a root.
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// SelfUs is the duration minus the part of it child spans cover.
	SelfUs float64 `json:"self_us"`
}

func (s *span) durUs() float64 { return s.EndUs - s.StartUs }

// tracer records spans for the traced replay. It is used from one goroutine:
// the replay runs the script sequentially.
type tracer struct {
	epoch time.Time
	spans []span
	opID  int
	root  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

func (t *tracer) now() float64 { return float64(time.Since(t.epoch)) / float64(time.Microsecond) }

// op runs fn as one script operation of the given kind under a root span.
func (t *tracer) op(kind string, fn func() error) error {
	t.opID++
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: "op." + kind, Op: t.opID, Kind: kind, Parent: -1, StartUs: t.now()})
	prev := t.root
	t.root = idx
	err := fn()
	t.spans[idx].EndUs = t.now()
	t.root = prev
	return err
}

// span times fn as a call into a layer, a child of the current operation.
func (t *tracer) span(name string, fn func()) {
	start := t.now()
	fn()
	s := span{Name: name, Parent: t.root, StartUs: start, EndUs: t.now()}
	if t.root >= 0 {
		s.Op, s.Kind = t.spans[t.root].Op, t.spans[t.root].Kind
	}
	t.spans = append(t.spans, s)
}

// computeSelf fills every span's self time.
func (t *tracer) computeSelf() {
	covered := make([]float64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			covered[p] += t.spans[i].durUs()
		}
	}
	for i := range t.spans {
		t.spans[i].SelfUs = t.spans[i].durUs() - covered[i]
	}
}

// traceSummary aggregates self times by span name and by op kind.
type traceSummary struct {
	// ops and wallMs count operations and their summed root-span time by
	// op kind.
	ops    map[string]int
	wallMs map[string]float64
	// selfMs and count sum self time and count spans by span name.
	selfMs map[string]float64
	count  map[string]int
	// layerMs sums the layer spans' self time by op kind.
	layerMs map[string]float64
}

func (t *tracer) summary() traceSummary {
	t.computeSelf()
	s := traceSummary{
		ops: map[string]int{}, wallMs: map[string]float64{},
		selfMs: map[string]float64{}, count: map[string]int{}, layerMs: map[string]float64{},
	}
	for _, sp := range t.spans {
		self := sp.SelfUs / 1000
		if sp.Parent < 0 {
			s.ops[sp.Kind]++
			s.wallMs[sp.Kind] += sp.durUs() / 1000
			continue
		}
		s.selfMs[sp.Name] += self
		s.count[sp.Name]++
		s.layerMs[sp.Kind] += self
	}
	return s
}

// meanMs is the mean self time of the spans with the given name.
func (s traceSummary) meanMs(name string) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return s.selfMs[name] / float64(s.count[name])
}

// unattributed sets unattributed.<kind>_ms for every traced op kind with an
// untraced latency sample: the untraced mean latency minus the traced layer
// time per operation, i.e. what the layers' spans do not cover (HTTP, JSON,
// queueing, scheduling). Layer self times plus this add up to the untraced
// mean wall time of the kind by construction.
func (s traceSummary) unattributed(out *outcome) {
	for kind, n := range s.ops {
		lat, ok := out.lat[kind]
		if !ok || n == 0 {
			continue
		}
		out.layers["unattributed."+kind+"_ms"] = stats.Mean(lat) - s.layerMs[kind]/float64(n)
	}
}

// writeFile writes the spans out as JSON.
func (t *tracer) writeFile(path string) error {
	t.computeSelf()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
