package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"murphy"
	"murphy/internal/core"
	"murphy/internal/explain"
	"murphy/internal/graph"
	"murphy/internal/reportstore"
	"murphy/internal/serve"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// daemonArgs are the murphyd flags of both daemon workloads: the documented
// invocation over a bootstrap snapshot, plus a persisted report store (the
// durable ack path), no timer-driven detector (the script issues every
// diagnosis), and no -state (wall-clock snapshots would land in some runs
// and not in others). Samples and window are spelled out so the replica
// below and the daemon cannot drift apart.
func daemonArgs(snapshot, reportDir string, samples int) []string {
	return []string{
		"-snapshot", snapshot,
		"-reportdir", reportDir,
		"-detect-every", "0",
		"-samples", strconv.Itoa(samples),
		"-window", strconv.Itoa(daemonWindow),
	}
}

const daemonWindow = 300

// daemonConfig is the algorithm configuration murphyd builds from
// daemonArgs.
func daemonConfig(samples int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Samples = samples
	cfg.TrainWindow = daemonWindow
	return cfg
}

// rankedCause is one certified cause as the triage check compares it.
type rankedCause struct {
	entity telemetry.EntityID
	pValue float64
}

// certified lists a report's certified causes in rank order.
func certified(rep *murphy.Report) []rankedCause {
	var out []rankedCause
	for _, c := range rep.Causes {
		if !c.Degraded {
			out = append(out, rankedCause{c.Entity, c.PValue})
		}
	}
	return out
}

func sameCauses(a, b []rankedCause) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstAcceptedRank is the 1-based rank of the first cause in accept, or 0.
func firstAcceptedRank(causes []rankedCause, accept map[telemetry.EntityID]bool) int {
	for i, c := range causes {
		if accept[c.entity] {
			return i + 1
		}
	}
	return 0
}

// replica re-creates the daemon's diagnosis path in process over the same
// snapshot, calling each layer's public functions directly so a tracer can
// time them: the traced decomposition of a /diagnose.
type replica struct {
	db    *telemetry.DB
	g     *graph.Graph
	sys   *murphy.System
	cfg   core.Config
	th    explain.Thresholds
	store *reportstore.Store
	stats diagStats
}

// newReplica loads the snapshot and opens the replica's report store under
// dir; the graph build is traced as a setup operation.
func newReplica(tr *tracer, inc *incident, samples int, storeDir string) (*replica, error) {
	db, err := inc.loadSnapshot()
	if err != nil {
		return nil, err
	}
	r := &replica{db: db, cfg: daemonConfig(samples), th: explain.DefaultThresholds()}
	err = tr.op("setup", func() error {
		var err error
		tr.span("graph.build", func() { r.g, err = graph.Build(db, db.Entities(), -1) })
		return err
	})
	if err != nil {
		return nil, err
	}
	// The read path's facade session, configured as murphyd configures it.
	if r.sys, err = murphy.New(db, murphy.WithConfig(r.cfg)); err != nil {
		return nil, err
	}
	if r.store, err = reportstore.Open(storeDir, reportstore.Options{MaxRecords: 10000}); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replica) close() { _ = r.store.Close() }

// ingest appends one slice, as /ingest does.
func (r *replica) ingest(tr *tracer, sl slicePoints) error {
	var n int
	var err error
	tr.span("telemetry.observe", func() { n, err = observe(r.db, sl) })
	r.stats.points += n
	return err
}

// diagStats accumulates the counts behind the per-layer metrics of the
// diagnose path.
type diagStats struct {
	diagnoses, candidates, nodes, tested, certified, samples, chains, factors, points int
}

// add sums two accumulators.
func (st *diagStats) add(o diagStats) {
	st.diagnoses += o.diagnoses
	st.candidates += o.candidates
	st.nodes += o.nodes
	st.tested += o.tested
	st.certified += o.certified
	st.samples += o.samples
	st.chains += o.chains
	st.factors += o.factors
	st.points += o.points
}

// diagnose runs one diagnosis layer by layer, exactly as murphyd's worker
// does (train, prune, test every candidate plus the symptom entity, rank,
// explain, encode the record, append it durably), and returns the certified
// causes in rank order.
func (r *replica) diagnose(tr *tracer, sym telemetry.Symptom) ([]rankedCause, error) {
	var (
		m   *core.Model
		err error
	)
	tr.span("core.train", func() { m, err = core.TrainOpt(context.Background(), r.db, r.g, r.cfg, core.TrainOpts{Now: -1}) })
	if err != nil {
		return nil, err
	}
	var cands []telemetry.EntityID
	tr.span("graph.prune", func() { cands = append(m.Candidates(sym.Entity), sym.Entity) })
	var causes []core.RootCause
	for _, c := range cands {
		tr.span("core.test", func() {
			rc, ok := m.EvaluateCandidate(c, sym)
			r.stats.samples += rc.SamplesUsed
			if ok {
				causes = append(causes, rc)
			}
		})
	}
	tr.span("core.rank", func() {
		sort.Slice(causes, func(i, j int) bool {
			if causes[i].Score != causes[j].Score {
				return causes[i].Score > causes[j].Score
			}
			return causes[i].Entity < causes[j].Entity
		})
	})
	rep := &murphy.Report{SchemaVersion: murphy.SchemaVersion, Symptom: sym, Candidates: cands}
	tr.span("explain", func() {
		lb := explain.NewLabeler(m, r.db, r.th)
		for _, c := range causes {
			rc := murphy.Cause{
				Entity: c.Entity, Score: c.Score, PValue: c.PValue, Effect: c.Effect,
				Path: c.Path, SamplesUsed: c.SamplesUsed,
			}
			if chain, ok := explain.Explain(lb, r.g, c.Entity, sym.Entity); ok {
				rc.Explanation = chain.Render(r.db)
				r.stats.chains++
			}
			rep.Causes = append(rep.Causes, rc)
		}
	})
	rec := &serve.ReportRecord{Source: "api", Symptom: sym, Report: rep, CompletedAt: time.Now().UTC()}
	var payload []byte
	tr.span("serve.encode", func() { payload, err = json.Marshal(rec) })
	if err != nil {
		return nil, err
	}
	tr.span("reportstore.append", func() {
		_, err = r.store.Append(storeRecord(r.db, rec, payload))
	})
	if err != nil {
		return nil, fmt.Errorf("append report: %w", err)
	}
	r.stats.diagnoses++
	r.stats.candidates += len(cands)
	r.stats.nodes += r.g.Len()
	r.stats.tested += len(cands)
	r.stats.certified += len(causes)
	r.stats.factors += m.NumFactors()
	return certified(rep), nil
}

// storeRecord maps a report record to its persisted form, indexing the same
// fields murphyd indexes.
func storeRecord(db *telemetry.DB, rec *serve.ReportRecord, payload []byte) *reportstore.Record {
	srec := &reportstore.Record{
		Seq: int64(rec.Seq), At: rec.CompletedAt, Source: rec.Source,
		Entity: string(rec.Symptom.Entity), Metric: rec.Symptom.Metric,
		Failed: rec.Err != "", Payload: payload,
	}
	if ent := db.Entity(rec.Symptom.Entity); ent != nil {
		srec.App = ent.App
	}
	for _, c := range certified(rec.Report) {
		srec.Causes = append(srec.Causes, string(c.entity))
	}
	return srec
}

// layerMetrics sets the per-layer metrics of the diagnose and ingest paths
// from the traced replay.
func (st diagStats) layerMetrics(s traceSummary, out *outcome) {
	L := out.layers
	L["graph.build_ms"] = s.meanMs("graph.build")
	if ingests := s.ops["ingest"]; ingests > 0 && st.points > 0 {
		L["telemetry.observe_us_per_point"] = s.selfMs["telemetry.observe"] * 1000 / float64(st.points)
		L["telemetry.points"] = float64(st.points) / float64(ingests)
	}
	if st.diagnoses == 0 {
		return
	}
	n := float64(st.diagnoses)
	L["graph.prune_ms"] = s.meanMs("graph.prune")
	L["graph.candidates"] = float64(st.candidates) / n
	L["graph.prune_ratio"] = float64(st.candidates) / float64(st.nodes)
	L["core.train_ms"] = s.meanMs("core.train")
	L["core.factors_trained"] = float64(st.factors) / n
	L["core.test_ms"] = s.selfMs["core.test"] / n
	L["core.test_ms_per_candidate"] = s.meanMs("core.test")
	L["core.samples"] = float64(st.samples) / n
	if s.selfMs["core.test"] > 0 {
		L["core.samples_per_s"] = float64(st.samples) / (s.selfMs["core.test"] / 1000)
	}
	L["core.certified_ratio"] = float64(st.certified) / float64(st.tested)
	L["core.rank_ms"] = s.meanMs("core.rank")
	L["explain.ms"] = s.meanMs("explain")
	L["explain.chains"] = float64(st.chains) / n
	L["serve.encode_ms"] = s.meanMs("serve.encode")
	L["reportstore.append_ms"] = s.meanMs("reportstore.append")
}

// serveStats accumulates what the daemon's own answers say about the serve
// layer.
type serveStats struct {
	queuedMs, httpMs []float64
	shed             int
}

func (s *serveStats) add(rec *serve.ReportRecord, clientMs float64) {
	s.queuedMs = append(s.queuedMs, rec.QueuedMs)
	s.httpMs = append(s.httpMs, clientMs-rec.WallMs)
}

func (s *serveStats) layerMetrics(out *outcome) {
	out.layers["serve.queue_wait_ms"] = stats.Mean(s.queuedMs)
	out.layers["serve.http_ms"] = stats.Mean(s.httpMs)
	out.layers["serve.shed"] = float64(s.shed)
}
