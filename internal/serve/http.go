package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// IngestBatch is the wire form of one POST /ingest payload: new entities and
// edges to register, metric observations, and configuration-change events.
// Observations default to the batch's Slice, and the batch Slice defaults to
// the next slice after the newest one in the database — so a steady stream
// of slice-less batches slides the window forward one slice per batch.
type IngestBatch struct {
	// Slice is the default time slice for the batch's observations
	// (nil = current newest slice + 1... see above).
	Slice *int `json:"slice,omitempty"`
	// Entities registers new entities; already-known IDs are skipped, not
	// errors, so agents may re-announce idempotently.
	Entities []IngestEntity `json:"entities,omitempty"`
	// Edges associates entity pairs (directed from→to).
	Edges [][2]telemetry.EntityID `json:"edges,omitempty"`
	// Observations are the metric points.
	Observations []IngestPoint `json:"observations,omitempty"`
	// Events are configuration-change events.
	Events []IngestEvent `json:"events,omitempty"`
}

// IngestEntity is the wire form of an entity registration.
type IngestEntity struct {
	ID   telemetry.EntityID   `json:"id"`
	Type telemetry.EntityType `json:"type"`
	Name string               `json:"name,omitempty"`
	App  string               `json:"app,omitempty"`
	Tier string               `json:"tier,omitempty"`
}

// IngestPoint is one metric observation.
type IngestPoint struct {
	Entity telemetry.EntityID `json:"entity"`
	Metric string             `json:"metric"`
	// Slice overrides the batch slice for this point when set.
	Slice *int    `json:"slice,omitempty"`
	Value float64 `json:"value"`
}

// IngestEvent is one configuration-change event.
type IngestEvent struct {
	Slice  *int                `json:"slice,omitempty"`
	Kind   telemetry.EventKind `json:"kind"`
	Entity telemetry.EntityID  `json:"entity"`
	Detail string              `json:"detail,omitempty"`
}

// IngestResult is the wire form of a successful /ingest response.
type IngestResult struct {
	Slice    int      `json:"slice"`
	Accepted int      `json:"accepted"`
	Rejected []string `json:"rejected,omitempty"`
	DBSlices int      `json:"db_slices"`
}

// DiagnoseRequest is the wire form of POST /diagnose.
type DiagnoseRequest struct {
	Symptom telemetry.Symptom `json:"symptom"`
	// DeadlineMs bounds the diagnosis; 0 means the server default. The
	// watchdog budget is a hard ceiling regardless.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

// writeJSON answers with v as compact JSON, so that a /diagnose answer is
// its stored payload plus the encoder's newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeShed answers an overload shed: 429 (or 503 while draining) with a
// Retry-After header estimated from the observed diagnosis latency.
func (s *Server) writeShed(w http.ResponseWriter, retryAfter int, msg string) {
	code := http.StatusTooManyRequests
	if s.State() != StateReady {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, errorBody{Error: msg, RetryAfter: retryAfter})
}

// Mux returns the daemon's HTTP handler: the System's observability mux
// (/metrics, /stats, /debug/vars, optionally /debug/pprof) extended with the
// service surface — POST /ingest, POST /diagnose, the operator query surface
// (GET /reports, GET /topology, GET /entities/{ref}/performance), and the
// /healthz /readyz /statusz probes.
func (s *Server) Mux() *http.ServeMux {
	mux := s.sys.ObservabilityMux(s.cfg.Pprof)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/diagnose", s.handleDiagnose)
	mux.HandleFunc("/reports", s.handleReports)
	mux.HandleFunc("/topology", s.handleTopology)
	mux.HandleFunc("/entities/", s.handleEntityPerf)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

// handleIngest applies one telemetry batch under the ingest admission
// semaphore. Sheds (429/503 + Retry-After) when too many batches are already
// being applied or the daemon is not ready; rejects oversized batches with
// 413 rather than letting a single request balloon memory.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.State() != StateReady {
		s.rec.Add(obs.CtrIngestShed, 1)
		s.writeShed(w, 5, "daemon is "+s.State().String()+", not accepting telemetry")
		return
	}
	select {
	case s.ingestSem <- struct{}{}:
		defer func() { <-s.ingestSem }()
	default:
		s.rec.Add(obs.CtrIngestShed, 1)
		s.writeShed(w, 1, "ingest admission limit reached")
		return
	}
	var batch IngestBatch
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&batch); err != nil {
		writeErr(w, http.StatusBadRequest, "decode batch: "+err.Error())
		return
	}
	if n := len(batch.Observations); n > maxBatchPoints {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch has %d observations, limit %d", n, maxBatchPoints))
		return
	}
	res, err := s.applyBatch(&batch)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// applyBatch registers entities/edges and appends observations and events.
// Per-point failures (unknown entity, negative slice, a slice more than
// maxSliceAhead past the newest) are collected into Rejected rather than
// aborting the batch: telemetry is append-mostly and a stray point must not
// discard its siblings.
func (s *Server) applyBatch(batch *IngestBatch) (*IngestResult, error) {
	slice := 0
	if batch.Slice != nil {
		slice = *batch.Slice
		if slice < 0 {
			return nil, fmt.Errorf("negative batch slice %d", slice)
		}
	} else {
		slice = s.db.Len() // next slice after the newest
	}
	res := &IngestResult{Slice: slice}
	for _, e := range batch.Entities {
		if e.ID == "" {
			res.Rejected = append(res.Rejected, "entity with empty id")
			continue
		}
		if s.db.HasEntity(e.ID) {
			continue
		}
		ent := &telemetry.Entity{ID: e.ID, Type: e.Type, Name: e.Name, App: e.App, Tier: e.Tier}
		if err := s.db.AddEntity(ent); err != nil {
			res.Rejected = append(res.Rejected, err.Error())
		}
	}
	for _, ed := range batch.Edges {
		if err := s.db.Associate(ed[0], ed[1], telemetry.Directed); err != nil {
			res.Rejected = append(res.Rejected, err.Error())
		}
	}
	newest := s.db.Len() - 1
	for _, p := range batch.Observations {
		t := slice
		if p.Slice != nil {
			t = *p.Slice
		}
		if t < 0 {
			res.Rejected = append(res.Rejected, fmt.Sprintf("%s/%s: negative slice %d", p.Entity, p.Metric, t))
			continue
		}
		if t > newest+maxSliceAhead {
			res.Rejected = append(res.Rejected, fmt.Sprintf("%s/%s: slice %d is more than %d past the newest slice %d",
				p.Entity, p.Metric, t, maxSliceAhead, newest))
			continue
		}
		if err := s.db.Observe(p.Entity, p.Metric, t, p.Value); err != nil {
			res.Rejected = append(res.Rejected, err.Error())
			continue
		}
		res.Accepted++
	}
	for _, ev := range batch.Events {
		t := slice
		if ev.Slice != nil {
			t = *ev.Slice
		}
		if err := s.db.RecordEvent(telemetry.Event{Slice: t, Kind: ev.Kind, Entity: ev.Entity, Detail: ev.Detail}); err != nil {
			res.Rejected = append(res.Rejected, err.Error())
		}
	}
	res.DBSlices = s.db.Len()
	s.rec.Add(obs.CtrIngestBatches, 1)
	s.rec.Add(obs.CtrIngestPoints, int64(res.Accepted))
	s.markDirty()
	return res, nil
}

// handleDiagnose runs one client-requested diagnosis through the bounded
// queue and waits for its report. The request deadline propagates into
// DiagnoseContext; queue-full sheds with 429 + Retry-After; a report the
// store could not persist answers 500.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req DiagnoseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if req.Symptom.Entity == "" || req.Symptom.Metric == "" {
		writeErr(w, http.StatusBadRequest, "symptom needs entity and metric")
		return
	}
	deadline := time.Duration(req.DeadlineMs) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	j := &job{
		symptom:    req.Symptom,
		deadline:   deadline,
		source:     "api",
		result:     make(chan jobResult, 1),
		enqueuedAt: time.Now(),
	}
	ok, retryAfter := s.enqueue(j)
	if !ok {
		s.writeShed(w, retryAfter, "diagnosis queue full")
		return
	}
	select {
	case res := <-j.result:
		if res.err != nil {
			writeErr(w, http.StatusInternalServerError, res.err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res.rec)
	case <-r.Context().Done():
		// The client went away; the worker still completes the job into the
		// report store (the buffered result channel absorbs the outcome).
		writeErr(w, http.StatusRequestTimeout, "client cancelled while waiting for diagnosis")
	}
}

// handleHealthz is liveness: 200 while the process can answer at all, 503
// only once the daemon has fully stopped.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.State() == StateStopped {
		writeErr(w, http.StatusServiceUnavailable, "stopped")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 200 only while the daemon admits work, so a
// load balancer stops routing to a draining instance before SIGTERM kills
// it.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	if st != StateReady {
		writeErr(w, http.StatusServiceUnavailable, st.String())
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// handleStatusz serves the live operational status.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.status())
}

// status returns a point-in-time view of the daemon's operational state.
func (s *Server) status() status {
	s.mu.Lock()
	st := status{
		State:       s.State().String(),
		QueueDepth:  len(s.queue),
		QueueCap:    s.cfg.QueueCap,
		Inflight:    s.inflight,
		MaxDepth:    s.maxDepth,
		EwmaMs:      s.ewmaMs,
		Seq:         int(s.store.LastSeq()),
		Quarantined: len(s.quarantine),
		LastScanned: s.lastScanned,
		Goroutines:  runtime.NumGoroutine(),
	}
	if !s.lastSnap.IsZero() {
		st.LastSnapshot = s.lastSnap.UTC().Format(time.RFC3339)
	}
	s.mu.Unlock()
	if !s.started.IsZero() {
		st.UptimeS = time.Since(s.started).Seconds()
	}
	st.DBSlices = s.db.Len()
	return st
}
