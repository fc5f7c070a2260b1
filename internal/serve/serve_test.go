package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"murphy"
	"murphy/internal/microsim"
	"murphy/internal/reportstore"
	"murphy/internal/telemetry"
)

// newTestScenario builds a small interference scenario (fast to train on).
func newTestScenario(t *testing.T) *microsim.Scenario {
	t.Helper()
	opts := microsim.DefaultInterferenceOptions()
	opts.Steps = 120
	sc, err := microsim.Interference(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// newTestServer boots a daemon over the scenario with fast algorithm
// parameters and a fresh report dir; mutate applies config overrides before
// New, sysOpts extend the System options (e.g. a slowed read path).
func newTestServer(t *testing.T, sc *microsim.Scenario, mutate func(*Config), sysOpts ...murphy.Option) *Server {
	t.Helper()
	cfg := Config{
		QueueCap:        4,
		Workers:         1,
		DefaultDeadline: 30 * time.Second,
		ReportDir:       t.TempDir(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	mcfg := murphy.DefaultConfig()
	mcfg.Samples = 150
	mcfg.TrainWindow = 80
	opts := append([]murphy.Option{
		murphy.WithConfig(mcfg),
		murphy.WithSeeds(sc.Symptom.Entity),
	}, sysOpts...)
	srv, err := New(sc.Result.DB, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// slowSource delays every training-window read by delay (respecting context
// cancellation), so tests can hold diagnoses in flight long enough to
// observe queueing, draining, and watchdog behavior deterministically.
type slowSource struct {
	db    *telemetry.DB
	delay time.Duration
}

func (s slowSource) Len() int                                   { return s.db.Len() }
func (s slowSource) Entities() []telemetry.EntityID             { return s.db.Entities() }
func (s slowSource) MetricNames(id telemetry.EntityID) []string { return s.db.MetricNames(id) }

func (s slowSource) ReadRawWindow(ctx context.Context, id telemetry.EntityID, metric string, lo, hi int) ([]float64, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return s.db.ReadRawWindow(ctx, id, metric, lo, hi)
}

// withSlowReads interposes slowSource on the daemon's diagnosis read path.
func withSlowReads(db *telemetry.DB, delay time.Duration) murphy.Option {
	return murphy.WithResilience(murphy.Resilience{Source: slowSource{db: db, delay: delay}})
}

func post(t *testing.T, h http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeReportPage unwraps a GET /reports envelope back into report records.
func decodeReportPage(t *testing.T, body []byte) []*ReportRecord {
	t.Helper()
	var page ReportPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("decode report page: %v\n%s", err, body)
	}
	if page.Count != len(page.Reports) {
		t.Fatalf("page count %d != %d reports", page.Count, len(page.Reports))
	}
	out := make([]*ReportRecord, 0, len(page.Reports))
	for _, raw := range page.Reports {
		rec := new(ReportRecord)
		if err := json.Unmarshal(raw, rec); err != nil {
			t.Fatalf("decode report payload: %v\n%s", err, raw)
		}
		out = append(out, rec)
	}
	return out
}

func TestIngestAppendsAndProbesReport(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()

	if w := get(mux, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", w.Code)
	}
	if w := get(mux, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", w.Code)
	}

	db := sc.Result.DB
	before := db.Len()
	ent := db.Entities()[0]
	metric := db.MetricNames(ent)[0]
	batch := IngestBatch{
		Entities: []IngestEntity{{ID: "ingest-vm", Type: telemetry.TypeVM, Name: "ingest-vm", App: "soak"}},
		Edges:    [][2]telemetry.EntityID{{ent, "ingest-vm"}},
		Observations: []IngestPoint{
			{Entity: ent, Metric: metric, Value: 1.5},
			{Entity: "ingest-vm", Metric: telemetry.MetricCPU, Value: 0.9},
			{Entity: "no-such-entity", Metric: "cpu_util", Value: 1},
		},
		Events: []IngestEvent{{Kind: telemetry.EventConfigChanged, Entity: "ingest-vm", Detail: "spawned"}},
	}
	w := post(t, mux, "/ingest", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Slice != before {
		t.Fatalf("batch slice = %d, want the next slice %d", res.Slice, before)
	}
	if res.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (one point targets an unknown entity)", res.Accepted)
	}
	if len(res.Rejected) != 1 || !strings.Contains(res.Rejected[0], "no-such-entity") {
		t.Fatalf("rejected = %v, want exactly the unknown-entity point", res.Rejected)
	}
	if db.Len() != before+1 {
		t.Fatalf("db.Len() = %d after batch, want %d (window slid one slice)", db.Len(), before+1)
	}
	if !db.HasEntity("ingest-vm") {
		t.Fatal("ingest did not register the announced entity")
	}
	var evs []telemetry.Event
	for _, ev := range db.EventsSince(0) {
		if ev.Entity == "ingest-vm" {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 1 || evs[0].Slice != before {
		t.Fatalf("events for ingest-vm = %v, want one at slice %d", evs, before)
	}
	w = get(mux, "/statusz")
	var status struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &status); w.Code != http.StatusOK || err != nil || status.State != "ready" {
		t.Fatalf("/statusz = %d (%v): %s", w.Code, err, w.Body.String())
	}
}

// TestIngestRejectsFarFutureSlice: a point more than maxSliceAhead past the
// newest slice is rejected on its own, so it cannot grow the database, while
// its siblings and a point exactly at the bound are accepted.
func TestIngestRejectsFarFutureSlice(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()

	db := sc.Result.DB
	before := db.Len()
	ent := db.Entities()[0]
	metric := db.MetricNames(ent)[0]
	ingest := func(slices ...int) IngestResult {
		t.Helper()
		var batch IngestBatch
		for i := range slices {
			batch.Observations = append(batch.Observations, IngestPoint{Entity: ent, Metric: metric, Slice: &slices[i], Value: 1})
		}
		w := post(t, mux, "/ingest", batch)
		if w.Code != http.StatusOK {
			t.Fatalf("/ingest = %d: %s", w.Code, w.Body.String())
		}
		var res IngestResult
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	past := before - 1 + maxSliceAhead + 1
	res := ingest(past, 1_000_000, before-1)
	if res.Accepted != 1 || len(res.Rejected) != 2 {
		t.Fatalf("accepted %d, rejected %v: want the in-range point accepted and both far points rejected", res.Accepted, res.Rejected)
	}
	for _, r := range res.Rejected {
		if !strings.Contains(r, "past the newest slice") {
			t.Fatalf("rejection %q does not name the bound", r)
		}
	}
	if res.DBSlices != before || db.Len() != before {
		t.Fatalf("db_slices = %d, db.Len() = %d after far points; want %d", res.DBSlices, db.Len(), before)
	}

	edge := before - 1 + maxSliceAhead
	if res := ingest(edge); res.Accepted != 1 || len(res.Rejected) != 0 || res.DBSlices != edge+1 {
		t.Fatalf("point at the bound: accepted %d, rejected %v, db_slices %d; want it accepted and %d slices",
			res.Accepted, res.Rejected, res.DBSlices, edge+1)
	}
}

// TestDiagnoseMissingSymptomValueFails: once an ingest carries a new slice
// without the symptom's metric, a diagnosis at that slice has no symptom
// value to explain. It must fail with a reason naming the series and the
// slice, stored as a failed record, not report "no causes" as if the
// symptom were normal.
func TestDiagnoseMissingSymptomValueFails(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()
	db := sc.Result.DB
	var other telemetry.EntityID
	for _, id := range db.Entities() {
		if id != sc.Symptom.Entity && len(db.MetricNames(id)) > 0 {
			other = id
			break
		}
	}
	batch := IngestBatch{Observations: []IngestPoint{{Entity: other, Metric: db.MetricNames(other)[0], Value: 1}}}
	w := post(t, mux, "/ingest", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", w.Code, w.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || res.Accepted != 1 {
		t.Fatalf("/ingest result %+v (%v), want the one point accepted", res, err)
	}

	w = post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
	}
	var rec ReportRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	series := fmt.Sprintf("%s/%s", sc.Symptom.Entity, sc.Symptom.Metric)
	slice := fmt.Sprintf("slice %d", res.Slice)
	if !strings.Contains(rec.Err, series) || !strings.Contains(rec.Err, slice) {
		t.Fatalf("diagnosis error = %q, want one naming %s and %s", rec.Err, series, slice)
	}
	if rec.Report == nil || !rec.Report.Partial || len(rec.Report.Causes) != 0 {
		t.Fatalf("failed diagnosis should store a partial shell without causes: %+v", rec.Report)
	}
	recs := decodeReportPage(t, get(mux, "/reports").Body.Bytes())
	if len(recs) != 1 || recs[0].Seq != rec.Seq || recs[0].Err != rec.Err {
		t.Fatalf("store holds %+v, want the failed record %d", recs, rec.Seq)
	}
}

func TestDiagnoseShedsWithRetryAfterUnderOverload(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, func(c *Config) {
		c.QueueCap = 2
		c.Workers = 1
	}, withSlowReads(sc.Result.DB, 10*time.Millisecond))
	srv.Start()
	mux := srv.Mux()

	// Offer 4x the queue capacity at once: with one worker the surplus must
	// shed 429 with a Retry-After hint, and nothing may report a status
	// outside {200, 429}.
	const offered = 8
	codes := make([]int, offered)
	retryAfter := make([]string, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
			codes[i] = w.Code
			retryAfter[i] = w.Header().Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("shed response %d missing Retry-After header", i)
			}
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	if shed == 0 {
		t.Fatalf("no request shed: offered %d against queue cap 2 + 1 worker", offered)
	}
	if depth := srv.maxDepthSnapshot(); depth > 2 {
		t.Fatalf("queue depth reached %d, capacity is 2", depth)
	}
}

func TestDrainFinishesInflightAndFlipsReadiness(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, func(c *Config) {
		c.DrainTimeout = time.Minute
	}, withSlowReads(sc.Result.DB, 10*time.Millisecond))
	srv.Start()
	mux := srv.Mux()

	// Put one diagnosis in flight, then drain while it runs.
	type result struct {
		code int
		body []byte
	}
	resCh := make(chan result, 1)
	go func() {
		w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
		resCh <- result{w.Code, w.Body.Bytes()}
	}()
	// Wait until the worker picks the job up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		busy := srv.inflight > 0
		srv.mu.Unlock()
		if busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("diagnosis never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.State() != StateStopped {
		t.Fatalf("state = %v after drain, want stopped", srv.State())
	}
	if w := get(mux, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after drain, want 503", w.Code)
	}
	// The in-flight diagnosis finished with a real report, not a
	// cancellation shell.
	r := <-resCh
	if r.code != http.StatusOK {
		t.Fatalf("in-flight diagnosis = %d: %s", r.code, r.body)
	}
	var rec ReportRecord
	if err := json.Unmarshal(r.body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Report == nil || rec.Err != "" {
		t.Fatalf("in-flight diagnosis was cut short during graceful drain: %+v", rec)
	}
	// New work after drain sheds with 503.
	if w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain diagnose = %d, want 503", w.Code)
	}
	if w := post(t, mux, "/ingest", IngestBatch{}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest = %d, want 503", w.Code)
	}
}

// TestDiagnoseFailsWhenReportNotPersisted: a 200 on /diagnose promises a
// durable report, so a report the store refuses reaches its client as a 500
// naming the store error.
func TestDiagnoseFailsWhenReportNotPersisted(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	w := post(t, srv.Mux(), "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), reportstore.ErrClosed.Error()) {
		t.Fatalf("/diagnose with a closed report store = %d: %s; want 500 naming the store error", w.Code, w.Body.String())
	}
}

// TestCloseAnswersQueuedWaiters: Close, like Drain, completes a diagnosis
// still waiting in the queue with a persisted drain-cancelled partial
// report, never a record without one.
func TestCloseAnswersQueuedWaiters(t *testing.T) {
	sc := newTestScenario(t)
	dir := t.TempDir()
	srv := newTestServer(t, sc, func(c *Config) { c.ReportDir = dir },
		withSlowReads(sc.Result.DB, 10*time.Millisecond))
	srv.Start()
	mux := srv.Mux()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			srv.mu.Lock()
			ok := cond()
			srv.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never saw %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	answers := make(chan *httptest.ResponseRecorder, 2)
	diagnose := func() {
		go func() { answers <- post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom}) }()
	}
	diagnose()
	waitFor("a diagnosis in flight", func() bool { return srv.inflight > 0 })
	diagnose()
	waitFor("a diagnosis queued behind it", func() bool { return len(srv.queue) == 1 })
	srv.Close()

	for i := 0; i < 2; i++ {
		w := <-answers
		if w.Code != http.StatusOK {
			t.Fatalf("/diagnose across Close = %d: %s", w.Code, w.Body.String())
		}
		var rec ReportRecord
		if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq == 0 || rec.Report == nil || rec.Report.SchemaVersion == 0 || !rec.Report.Partial {
			t.Fatalf("diagnosis cut short by Close got no persisted partial report: %+v", rec)
		}
	}
	st, err := reportstore.Open(dir, reportstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 2 {
		t.Fatalf("report store holds %d records after Close, want both answered diagnoses", st.Len())
	}
}

func TestKillAndRestartRecoversSnapshotAndDiagnosis(t *testing.T) {
	sc := newTestScenario(t)
	state := filepath.Join(t.TempDir(), "state.json")
	reports := t.TempDir() // one report store across both lives

	// First life: serve one diagnosis, snapshot, then crash (Close, no
	// drain, no final snapshot beyond the explicit one).
	srv1 := newTestServer(t, sc, func(c *Config) {
		c.SnapshotPath = state
		c.ReportDir = reports
	})
	srv1.Start()
	mux1 := srv1.Mux()
	w := post(t, mux1, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w.Code != http.StatusOK {
		t.Fatalf("pre-kill diagnose = %d: %s", w.Code, w.Body.String())
	}
	preLen := sc.Result.DB.Len()
	if err := srv1.WriteSnapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	srv1.Close() // crash

	// Second life: recover from disk into a fresh DB and daemon.
	db2, restore, err := RecoverFromDisk(state)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if db2 == nil {
		t.Fatal("recovery found no snapshot")
	}
	if db2.Len() != preLen {
		t.Fatalf("recovered db has %d slices, want %d", db2.Len(), preLen)
	}
	mcfg := murphy.DefaultConfig()
	mcfg.Samples = 150
	mcfg.TrainWindow = 80
	srv2, err := New(db2, Config{QueueCap: 4, Workers: 1, ReportDir: reports},
		murphy.WithConfig(mcfg), murphy.WithSeeds(sc.Symptom.Entity))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	restore(srv2)
	srv2.Start()
	mux2 := srv2.Mux()

	// The pre-kill report survived in the report store with its sequence
	// number.
	rw := get(mux2, "/reports")
	recs := decodeReportPage(t, rw.Body.Bytes())
	if len(recs) != 1 || recs[0].Seq != 1 || recs[0].Symptom != sc.Symptom {
		t.Fatalf("recovered reports = %v, want the single pre-kill report", recs)
	}

	// And the recovered daemon serves a correct diagnosis for the pre-kill
	// symptom: the planted cause (or an acceptable alternative) ranks in
	// the top 3.
	w2 := post(t, mux2, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w2.Code != http.StatusOK {
		t.Fatalf("post-recovery diagnose = %d: %s", w2.Code, w2.Body.String())
	}
	var rec ReportRecord
	if err := json.Unmarshal(w2.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Report == nil {
		t.Fatal("post-recovery diagnosis returned no report")
	}
	if !rankedWithin(rec.Report, sc.TruthEntity, sc.Acceptable, 3) {
		got := make([]telemetry.EntityID, 0, 3)
		for _, c := range rec.Report.Top(3) {
			got = append(got, c.Entity)
		}
		t.Fatalf("post-recovery diagnosis ranked %v in top 3, want %v (or one of %v)",
			got, sc.TruthEntity, sc.Acceptable)
	}
	if rec.Seq != 2 {
		t.Fatalf("post-recovery report seq = %d, want 2 (sequence continues across restart)", rec.Seq)
	}
}

func TestWatchdogCancelsAndQuarantines(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, func(c *Config) {
		// A watchdog budget far below the diagnosis cost: the job must be
		// cancelled and its symptom quarantined.
		c.WatchdogTimeout = 20 * time.Millisecond
	}, withSlowReads(sc.Result.DB, 50*time.Millisecond))
	srv.Start()
	mux := srv.Mux()

	w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom, DeadlineMs: 60000})
	if w.Code != http.StatusOK {
		t.Fatalf("/diagnose = %d: %s", w.Code, w.Body.String())
	}
	var rec ReportRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Watchdog {
		t.Fatalf("record not flagged as watchdog-cancelled: %+v", rec)
	}
	if rec.Report == nil || !rec.Report.Partial || len(rec.Report.Skipped) == 0 {
		t.Fatalf("watchdog cancellation must yield an annotated partial report, got %+v", rec.Report)
	}
	if !strings.Contains(rec.Err, "watchdog") {
		t.Fatalf("error annotation %q does not name the watchdog", rec.Err)
	}
	srv.mu.Lock()
	_, quarantined := srv.quarantine[sc.Symptom]
	srv.mu.Unlock()
	if !quarantined {
		t.Fatal("watchdog-cancelled symptom not quarantined")
	}
	if srv.admitDetected(sc.Symptom) {
		t.Fatal("detector admission must refuse a quarantined symptom")
	}
	other := telemetry.Symptom{Entity: "someone-else", Metric: "cpu_util", High: true}
	if !srv.admitDetected(other) {
		t.Fatal("quarantine must be per-symptom, not global")
	}
}

func TestDetectorEnqueuesFreshSymptoms(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, func(c *Config) {
		c.DetectEvery = 10 * time.Millisecond
	})
	srv.Start()
	mux := srv.Mux()

	// Slide the window with a blatantly anomalous value on one entity so
	// ScanAll flags it; the detector must pick it up and diagnose it.
	db := sc.Result.DB
	ent := db.Entities()[0]
	metric := db.MetricNames(ent)[0]
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		batch := IngestBatch{Observations: []IngestPoint{{Entity: ent, Metric: metric, Value: 1e6}}}
		if w := post(t, mux, "/ingest", batch); w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
			t.Fatalf("/ingest = %d: %s", w.Code, w.Body.String())
		}
		rw := get(mux, "/reports")
		for _, rec := range decodeReportPage(t, rw.Body.Bytes()) {
			if rec.Source == "detector" {
				if rec.Report == nil {
					t.Fatalf("detector diagnosis has no report: %+v", rec)
				}
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("continuous detector never diagnosed the planted anomaly")
}

func TestSnapshotRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	snap := fmt.Sprintf(`{"version": %d, "db": {"interval_seconds": 60}}`, snapshotVersion+1)
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("LoadSnapshot on newer version: err = %v, want version rejection", err)
	}
}
