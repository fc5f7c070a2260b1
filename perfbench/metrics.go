package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run reports, on every workload. The
// "primary" operation is the one the workload exists to measure: /diagnose on
// triage, a what-if question pair on fleet-whatif, an operator read on
// operator-reads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "ops/s"},
	{"primary_p50_ms", "ms"},
	{"primary_tail_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"ingest_tail_ms", "ms"},
}

// perLayer are the metrics a -trace 1 run reports, on every workload; a
// layer a workload does not exercise reports 0. Latencies of single
// operation kinds and accuracy sit here too, because not every workload has
// them.
var perLayer = []metricDef{
	// Operation latencies and outcomes of the untraced run.
	{"diagnose_p50_ms", "ms"},
	{"diagnose_tail_ms", "ms"},
	{"whatif_p50_ms", "ms"},
	{"whatif_tail_ms", "ms"},
	{"whatif_hit_p50_ms", "ms"},
	{"scan_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"top1_rate", "ratio"},
	{"mrr", "ratio"},
	{"error_ratio", "ratio"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	// serve: measured on the daemon's answers in the untraced run.
	{"serve.queue_wait_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.encode_ms", "ms"},
	// Layers timed by spans in the traced replay.
	{"telemetry.observe_us_per_point", "us"},
	{"telemetry.points", "count"},
	{"anomaly.scan_ms", "ms"},
	{"anomaly.symptoms", "count"},
	{"graph.build_ms", "ms"},
	{"graph.prune_ms", "ms"},
	{"graph.candidates", "count"},
	{"graph.prune_ratio", "ratio"},
	{"core.train_ms", "ms"},
	{"core.factors_trained", "count"},
	{"core.store_hits", "count"},
	{"core.store_refits", "count"},
	{"core.store_reselects", "count"},
	{"core.store_drift_trips", "count"},
	{"core.store_hit_ratio", "ratio"},
	{"core.test_ms", "ms"},
	{"core.test_ms_per_candidate", "ms"},
	{"core.samples", "count"},
	{"core.samples_per_s", "1/s"},
	{"core.certified_ratio", "ratio"},
	{"core.rank_ms", "ms"},
	{"core.propagate_ms", "ms"},
	{"explain.ms", "ms"},
	{"explain.chains", "count"},
	{"reportstore.append_ms", "ms"},
	{"reportstore.query_ms", "ms"},
	{"reportstore.segment_bytes", "bytes"},
	{"query.topology_ms", "ms"},
	{"query.performance_ms", "ms"},
	// Untraced mean latency minus the traced layer time, per op kind.
	{"unattributed.ingest_ms", "ms"},
	{"unattributed.diagnose_ms", "ms"},
	{"unattributed.whatif_ms", "ms"},
	{"unattributed.whatif_hit_ms", "ms"},
	{"unattributed.scan_ms", "ms"},
	{"unattributed.read_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// primary is the op kind behind primary_p50_ms and primary_tail_ms.
	primary string
	// tails fixes, per op kind, the percentile reported as its tail: the
	// highest one with at least ten samples beyond it at the sample count a
	// default-length run collects.
	tails map[string]float64
	// loops says, per op kind, how the generator issues it.
	loops map[string]string
	run   func(*env) (*outcome, error)
}

var workloads = map[string]*workload{
	triageWorkload.name:        triageWorkload,
	fleetWorkload.name:         fleetWorkload,
	operatorReadsWorkload.name: operatorReadsWorkload,
}

func (w *workload) tail(kind string) float64 {
	if p, ok := w.tails[kind]; ok {
		return p
	}
	return 90
}

func (w *workload) loop(kind string) string {
	if l, ok := w.loops[kind]; ok {
		return l
	}
	return "closed loop"
}

// outcome is everything one run measured.
type outcome struct {
	passes int
	// setups holds each pass's set-up time in seconds.
	setups []float64
	// rssMB is the peak resident set (VmHWM) of the process under test.
	rssMB float64
	// timed is the wall time of the timed phase, summed over passes; ops
	// counts the script operations it completed.
	timed time.Duration
	ops   int
	// lat holds the untraced latencies in ms, by op kind.
	lat map[string][]float64
	// attempted and failed count operations and failed ones (an error
	// answer, a shed, a partial report, or a failed output check).
	attempted, failed int
	failures          []string
	// late holds how late, in ms, the open-loop generator sent each request.
	late []float64
	// layers holds per-layer metrics the workload computed itself.
	layers map[string]float64
	trace  *tracer
}

func newOutcome() *outcome {
	return &outcome{lat: map[string][]float64{}, layers: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(reason string) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, reason)
	}
}

func (o *outcome) record(kind string, d time.Duration) {
	o.lat[kind] = append(o.lat[kind], ms(d))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the run's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) result(w *workload, trace bool) *result {
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
	}
	values := map[string]float64{}
	if !trace {
		values["setup_s"] = percentile(o.setups, 50)
		values["peak_rss_mb"] = o.rssMB
		values["ops_per_s"] = float64(o.ops) / o.timed.Seconds()
		values["primary_p50_ms"] = percentile(o.lat[w.primary], 50)
		values["primary_tail_ms"] = percentile(o.lat[w.primary], w.tail(w.primary))
		values["ingest_p50_ms"] = percentile(o.lat["ingest"], 50)
		values["ingest_tail_ms"] = percentile(o.lat["ingest"], w.tail("ingest"))
		for _, d := range endToEnd {
			r.Metrics[d.name] = metric{Value: finite(values[d.name]), Unit: d.unit}
		}
		return r
	}
	for k, v := range o.layers {
		values[k] = v
	}
	for _, kind := range []string{"diagnose", "whatif", "read"} {
		values[kind+"_p50_ms"] = percentile(o.lat[kind], 50)
		values[kind+"_tail_ms"] = percentile(o.lat[kind], w.tail(kind))
	}
	values["whatif_hit_p50_ms"] = percentile(o.lat["whatif_hit"], 50)
	values["scan_p50_ms"] = percentile(o.lat["scan"], 50)
	values["error_ratio"] = float64(r.Failed) / float64(r.Attempted)
	values["loadgen.late_p50_ms"] = percentile(o.late, 50)
	if len(o.late) > 0 {
		values["loadgen.late_max_ms"] = percentile(o.late, 100)
	}
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{Value: finite(values[d.name]), Unit: d.unit}
	}
	return r
}

// finite maps the NaN of an empty sample to 0 so the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or NaN for an empty sample. The
// nearest-rank stats.Quantile would do for a median, but a tail with only
// ten samples beyond it would jump by whole gaps between samples from run to
// run; interpolating smooths that.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}
