package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"murphy"
	"murphy/internal/chaos"
	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// SoakOptions configures one chaos soak drill of the always-on daemon.
type SoakOptions struct {
	// Duration is how long the overload phase hammers the daemon.
	Duration time.Duration
	// Steps / Samples / TrainWindow size the microsim scenario and Murphy's
	// sampling, reduced from paper scale to keep drills fast.
	Steps, Samples, TrainWindow int
	// QueueCap / Workers configure the daemon's diagnosis queue.
	QueueCap, Workers int
	// OverloadFactor multiplies QueueCap into the burst of concurrent
	// diagnosis requests fired at the daemon — 2.0 means twice the queue
	// capacity is offered at once, so sheds must happen.
	OverloadFactor float64
	// IngestWorkers is how many goroutines stream telemetry batches
	// concurrently (set above the ingest admission limit to force sheds).
	IngestWorkers int
	// ReadWorkers is the burst size of the read-path hammer: each round
	// fires this many simultaneous topology / performance / report-search
	// queries. The drill caps the daemon's MaxConcurrentReads at half this
	// burst, so the read surface runs at 2× overload and must shed.
	ReadWorkers int
	// DiagnoseDeadline bounds each hammer diagnosis (short, so some expire
	// into partial reports under chaos latency).
	DiagnoseDeadline time.Duration
	// Chaos is the fault injection on the daemon's telemetry read path.
	Chaos chaos.Config
	// SnapshotPath, when set, enables crash-safe persistence during the
	// drill ("" disables).
	SnapshotPath string
	// Seed drives the scenario and the hammer's randomness.
	Seed int64
}

// DefaultSoakOptions returns a drill sized for CI: a few seconds of
// sustained 2× overload under moderate chaos.
func DefaultSoakOptions() SoakOptions {
	return SoakOptions{
		Duration:         3 * time.Second,
		Steps:            200,
		Samples:          200,
		TrainWindow:      120,
		QueueCap:         4,
		Workers:          2,
		OverloadFactor:   2,
		IngestWorkers:    8,
		ReadWorkers:      4,
		DiagnoseDeadline: 1200 * time.Millisecond,
		Chaos: chaos.Config{
			Seed:        7,
			FaultRate:   0.05,
			LatencyRate: 0.05,
			Latency:     2 * time.Millisecond,
			CorruptRate: 0.02,
		},
		Seed: 1,
	}
}

func (o SoakOptions) withDefaults() SoakOptions {
	d := DefaultSoakOptions()
	if o.Duration <= 0 {
		o.Duration = d.Duration
	}
	if o.Steps <= 0 {
		o.Steps = d.Steps
	}
	if o.Samples <= 0 {
		o.Samples = d.Samples
	}
	if o.TrainWindow <= 0 {
		o.TrainWindow = d.TrainWindow
	}
	if o.QueueCap <= 0 {
		o.QueueCap = d.QueueCap
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	if o.OverloadFactor <= 0 {
		o.OverloadFactor = d.OverloadFactor
	}
	if o.IngestWorkers <= 0 {
		o.IngestWorkers = d.IngestWorkers
	}
	if o.ReadWorkers <= 0 {
		o.ReadWorkers = d.ReadWorkers
	}
	if o.DiagnoseDeadline <= 0 {
		o.DiagnoseDeadline = d.DiagnoseDeadline
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// SoakResult is the outcome of one chaos soak drill: every count the
// degradation-ladder assertions (Violations) and the overload table in
// EXPERIMENTS.md are built from.
type SoakResult struct {
	Opts SoakOptions `json:"opts"`

	// Ingest-side counts.
	IngestRequests int `json:"ingest_requests"`
	IngestOK       int `json:"ingest_ok"`
	IngestShed     int `json:"ingest_shed"` // 429/503
	IngestPoints   int `json:"ingest_points"`
	// IngestRejected counts the points that answered batches listed in
	// `rejected`. The hammer posts only points the daemon should take, so
	// any is a violation.
	IngestRejected int `json:"ingest_rejected"`

	// Diagnosis-side counts.
	DiagnoseRequests int `json:"diagnose_requests"`
	DiagnoseOK       int `json:"diagnose_ok"`
	DiagnoseShed     int `json:"diagnose_shed"` // 429/503
	PartialReports   int `json:"partial_reports"`
	FullReports      int `json:"full_reports"`

	// Read-side counts: the operator query surface (GET /topology,
	// /entities/{ref}/performance, /reports) hammered at 2× its admission
	// limit alongside the write-path overload.
	ReadRequests    int `json:"read_requests"`
	ReadOK          int `json:"read_ok"`
	ReadShed        int `json:"read_shed"` // 429/503
	ReadBurst       int `json:"read_burst"`
	ReadConcurrency int `json:"read_concurrency"`
	// ReadDrainShed records whether a query issued while the daemon was
	// draining answered 503 (reads must follow the same lifecycle as writes).
	ReadDrainShed bool `json:"read_drain_shed"`

	// Degradation-ladder evidence.
	UnexpectedStatus  map[string]int `json:"unexpected_status,omitempty"`
	ShedsMissingRetry int            `json:"sheds_missing_retry_after"`
	MaxQueueDepth     int            `json:"max_queue_depth"`
	QueueCap          int            `json:"queue_cap"`
	GoroutineDelta    int            `json:"goroutine_delta"`
	ReadyBefore       bool           `json:"ready_before"`
	ReadyDuringDrain  bool           `json:"not_ready_during_drain"`
	DrainErr          string         `json:"drain_error,omitempty"`

	// Final-report evidence: after the overload phase, a generous-deadline
	// diagnosis must come back as a well-formed versioned report — never a
	// hang and never a zero value. FinalRanked additionally records whether
	// the planted cause was still ranked (informational: the hammer's
	// replayed telemetry dilutes the incident signal, so ranking through it
	// is not a ladder requirement; snapshot-recovery accuracy is asserted
	// on clean data by the serve tests).
	FinalOK      bool    `json:"final_ok"`
	FinalRanked  bool    `json:"final_ranked"`
	TruthEntity  string  `json:"truth_entity"`
	P50DiagMs    float64 `json:"p50_diag_ms"`
	P99DiagMs    float64 `json:"p99_diag_ms"`
	WallMs       float64 `json:"wall_ms"`
	OfferedBurst int     `json:"offered_burst"`
}

// Violations checks the degradation ladder and returns one line per breach
// (empty = the drill passed): every response from a known-good status set,
// no ingested point rejected, sheds carrying Retry-After, queue depth
// bounded by capacity, goroutines reclaimed after drain, readiness flipping
// around drain, and the final generous diagnosis still ranking the planted
// cause.
func (r *SoakResult) Violations() []string {
	var v []string
	for st, n := range r.UnexpectedStatus {
		v = append(v, fmt.Sprintf("%d responses with unexpected status %s", n, st))
	}
	if r.IngestRejected > 0 {
		v = append(v, fmt.Sprintf("%d ingested points rejected", r.IngestRejected))
	}
	if r.ShedsMissingRetry > 0 {
		v = append(v, fmt.Sprintf("%d shed responses missing Retry-After", r.ShedsMissingRetry))
	}
	if r.DiagnoseShed == 0 && r.OfferedBurst > r.QueueCap {
		v = append(v, fmt.Sprintf("no diagnosis sheds despite offering %d requests to a %d-slot queue", r.OfferedBurst, r.QueueCap))
	}
	if r.MaxQueueDepth > r.QueueCap {
		v = append(v, fmt.Sprintf("queue depth %d exceeded capacity %d", r.MaxQueueDepth, r.QueueCap))
	}
	if r.ReadOK == 0 && r.ReadRequests > 0 {
		v = append(v, "no read query succeeded during overload")
	}
	if r.ReadShed == 0 && r.ReadBurst > r.ReadConcurrency {
		v = append(v, fmt.Sprintf("no read sheds despite bursts of %d against a %d-slot read limit", r.ReadBurst, r.ReadConcurrency))
	}
	if r.ReadRequests > 0 && !r.ReadDrainShed {
		v = append(v, "read query during drain did not answer 503")
	}
	if r.GoroutineDelta > 2 {
		v = append(v, fmt.Sprintf("goroutine delta %d after drain (leak)", r.GoroutineDelta))
	}
	if !r.ReadyBefore {
		v = append(v, "daemon not ready before the overload phase")
	}
	if !r.ReadyDuringDrain {
		v = append(v, "readiness did not flip to 503 during drain")
	}
	if r.DrainErr != "" {
		v = append(v, "drain: "+r.DrainErr)
	}
	if !r.FinalOK {
		v = append(v, "final generous diagnosis did not produce a well-formed report")
	}
	if r.DiagnoseOK == 0 {
		v = append(v, "no diagnosis request succeeded during overload")
	}
	return v
}

// String renders the drill as an operator table.
func (r *SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %s at %gx overload, queue=%d workers=%d chaos(fault=%.2f lat=%.2f corrupt=%.2f)\n",
		r.Opts.Duration, r.Opts.OverloadFactor, r.QueueCap, r.Opts.Workers,
		r.Opts.Chaos.FaultRate, r.Opts.Chaos.LatencyRate, r.Opts.Chaos.CorruptRate)
	fmt.Fprintf(&b, "  ingest    %6d req  %6d ok  %6d shed  %8d points  %d rejected\n", r.IngestRequests, r.IngestOK, r.IngestShed, r.IngestPoints, r.IngestRejected)
	fmt.Fprintf(&b, "  diagnose  %6d req  %6d ok  %6d shed  (%d full, %d partial)\n", r.DiagnoseRequests, r.DiagnoseOK, r.DiagnoseShed, r.FullReports, r.PartialReports)
	fmt.Fprintf(&b, "  reads     %6d req  %6d ok  %6d shed  (burst %d vs %d slots)\n", r.ReadRequests, r.ReadOK, r.ReadShed, r.ReadBurst, r.ReadConcurrency)
	fmt.Fprintf(&b, "  latency   p50=%.0fms p99=%.0fms  queue depth max %d/%d  goroutine delta %+d\n",
		r.P50DiagMs, r.P99DiagMs, r.MaxQueueDepth, r.QueueCap, r.GoroutineDelta)
	fmt.Fprintf(&b, "  ladder    ready-before=%v drain-flip=%v final-ok=%v final-ranked=%v", r.ReadyBefore, r.ReadyDuringDrain, r.FinalOK, r.FinalRanked)
	if vs := r.Violations(); len(vs) > 0 {
		fmt.Fprintf(&b, "\n  VIOLATIONS:\n")
		for _, v := range vs {
			fmt.Fprintf(&b, "    - %s\n", v)
		}
	} else {
		fmt.Fprintf(&b, "  [ok]\n")
	}
	return b.String()
}

// okStatus is the degradation ladder's allowed response set: success, the
// two shed codes, payload rejection, and client-side cancellation.
func okStatus(code int) bool {
	switch code {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusRequestEntityTooLarge, http.StatusRequestTimeout:
		return true
	}
	return false
}

// RunSoak boots a daemon over a microsim scenario with chaos injected into
// its telemetry read path, hammers ingest and diagnosis past the admission
// limits for Duration, then drains gracefully — measuring the full
// degradation ladder along the way. It is the executable form of the
// robustness claims: under overload the daemon sheds (429/503 +
// Retry-After) instead of growing, under chaos it degrades to partial
// reports instead of failing, and after drain every goroutine is reclaimed.
func RunSoak(opts SoakOptions) (*SoakResult, error) {
	opts = opts.withDefaults()
	res := &SoakResult{Opts: opts, QueueCap: opts.QueueCap, UnexpectedStatus: map[string]int{}}

	simOpts := microsim.DefaultInterferenceOptions()
	simOpts.Steps = opts.Steps
	simOpts.Seed = opts.Seed
	sc, err := microsim.Interference(simOpts)
	if err != nil {
		return nil, fmt.Errorf("serve: soak scenario: %w", err)
	}
	res.TruthEntity = string(sc.TruthEntity)
	db := sc.Result.DB

	baseline := runtime.NumGoroutine()

	cfg := murphy.DefaultConfig()
	cfg.Samples = opts.Samples
	cfg.TrainWindow = opts.TrainWindow
	retry := murphy.RetryPolicy{MaxAttempts: 3}
	readSlots := opts.ReadWorkers / 2
	if readSlots < 1 {
		readSlots = 1
	}
	res.ReadBurst = opts.ReadWorkers
	res.ReadConcurrency = readSlots
	// The drill's reports go to a throwaway store; nothing reads them after.
	reportDir, err := os.MkdirTemp("", "murphyd-soak-reports-")
	if err != nil {
		return nil, fmt.Errorf("serve: soak report dir: %w", err)
	}
	defer os.RemoveAll(reportDir)
	srv, err := New(db, Config{
		QueueCap:            opts.QueueCap,
		Workers:             opts.Workers,
		MaxConcurrentIngest: 2,
		MaxConcurrentReads:  readSlots,
		ReportDir:           reportDir,
		DefaultDeadline:     opts.DiagnoseDeadline,
		WatchdogTimeout:     30 * time.Second,
		DetectEvery:         75 * time.Millisecond,
		SnapshotPath:        opts.SnapshotPath,
		SnapshotEvery:       500 * time.Millisecond,
		DrainTimeout:        30 * time.Second,
	},
		murphy.WithConfig(cfg),
		murphy.WithSeeds(sc.Symptom.Entity),
		murphy.WithResilience(murphy.Resilience{
			Source: chaos.Wrap(db, opts.Chaos),
			Retry:  &retry,
		}),
	)
	if err != nil {
		return nil, err
	}
	srv.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("serve: soak listener: %w", err)
	}
	hs := &http.Server{Handler: srv.Mux()}
	go hs.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: time.Minute}

	res.ReadyBefore = getStatus(client, base+"/readyz") == http.StatusOK

	start := time.Now()
	stop := time.After(opts.Duration)
	var mu sync.Mutex
	var diagMs []float64
	var wg sync.WaitGroup

	// Ingest hammer: each worker streams batches that slide the telemetry
	// window forward, so the continuous detector always has fresh slices to
	// scan. Batches replay the scenario's trailing window cyclically (same
	// source slice across all entities, small jitter) so the appended
	// telemetry keeps the cross-entity correlations instead of drowning the
	// incident in white noise; an atomic slice counter keeps concurrent
	// workers from colliding on a slice. A shed batch is posted again at
	// its slice until the daemon takes it, so the database grows without
	// holes and the writers stay within IngestWorkers slices of the newest:
	// after the overload phase a worker takes no new slice but finishes the
	// one it holds.
	ents := db.Entities()
	if len(ents) > 8 {
		ents = ents[:8]
	}
	replayLen := opts.TrainWindow
	if l := db.Len(); replayLen > l {
		replayLen = l
	}
	baseSlice := db.Len()
	type seriesReplay struct {
		id     telemetry.EntityID
		metric string
		vals   []float64
	}
	var replay []seriesReplay
	for _, id := range ents {
		for _, metric := range db.MetricNames(id) {
			replay = append(replay, seriesReplay{
				id: id, metric: metric,
				vals: db.RawWindow(id, metric, baseSlice-replayLen, baseSlice),
			})
		}
	}
	var nextSlice int64 = int64(baseSlice)
	done := make(chan struct{})
	go func() { <-stop; close(done) }()
	for w := 0; w < opts.IngestWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				t := int(atomic.AddInt64(&nextSlice, 1) - 1)
				src := (t - baseSlice) % replayLen
				batch := IngestBatch{Slice: &t}
				for _, sr := range replay {
					v := sr.vals[src]
					if v != v { // missing in the source window stays missing
						continue
					}
					batch.Observations = append(batch.Observations, IngestPoint{
						Entity: sr.id, Metric: sr.metric, Value: v * (1 + 0.01*(rng.Float64()-0.5)),
					})
				}
				for shed := true; shed; {
					code, body := postJSON(client, base+"/ingest", batch)
					shed = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
					mu.Lock()
					res.IngestRequests++
					switch {
					case code == http.StatusOK:
						res.IngestOK++
						var ir IngestResult
						if json.Unmarshal(body, &ir) == nil {
							res.IngestPoints += ir.Accepted
							res.IngestRejected += len(ir.Rejected)
						}
					case shed:
						res.IngestShed++
					default:
						if !okStatus(code) {
							res.UnexpectedStatus[fmt.Sprintf("ingest:%d", code)]++
						}
					}
					mu.Unlock()
				}
			}
		}(w)
	}

	// Diagnosis hammer: repeated bursts of OverloadFactor × QueueCap
	// concurrent requests for the scenario symptom, so the queue is always
	// offered more than it can hold.
	burst := int(opts.OverloadFactor * float64(opts.QueueCap))
	if burst < 1 {
		burst = 1
	}
	res.OfferedBurst = burst
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var bw sync.WaitGroup
			for i := 0; i < burst; i++ {
				bw.Add(1)
				go func() {
					defer bw.Done()
					req := DiagnoseRequest{
						Symptom:    sc.Symptom,
						DeadlineMs: int(opts.DiagnoseDeadline / time.Millisecond),
					}
					t0 := time.Now()
					code, body := postJSON(client, base+"/diagnose", req)
					ms := float64(time.Since(t0)) / float64(time.Millisecond)
					mu.Lock()
					defer mu.Unlock()
					res.DiagnoseRequests++
					switch {
					case code == http.StatusOK:
						res.DiagnoseOK++
						diagMs = append(diagMs, ms)
						var rec ReportRecord
						if json.Unmarshal(body, &rec) == nil && rec.Report != nil {
							if rec.Report.Partial {
								res.PartialReports++
							} else {
								res.FullReports++
							}
						}
					case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
						res.DiagnoseShed++
						if !retryAfterPresent(body) {
							res.ShedsMissingRetry++
						}
					default:
						if !okStatus(code) {
							res.UnexpectedStatus[fmt.Sprintf("diagnose:%d", code)]++
						}
					}
				}()
			}
			bw.Wait()
		}
	}()

	// Read hammer: rounds of ReadWorkers simultaneous operator queries —
	// topology neighborhoods, per-entity performance summaries, and report
	// searches — against a read admission limit of half the burst, so the
	// query surface runs at 2× overload and must shed with 429 + Retry-After
	// while the write path is also saturated.
	readTargets := make([]string, 0, 2*len(ents)+1)
	for _, id := range ents {
		readTargets = append(readTargets,
			"/topology?entity="+url.QueryEscape(string(id))+"&depth=2",
			"/entities/"+string(id)+"/performance?window=64",
		)
	}
	readTargets = append(readTargets, "/reports?limit=100")
	wg.Add(1)
	go func() {
		defer wg.Done()
		round := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			var bw sync.WaitGroup
			for i := 0; i < opts.ReadWorkers; i++ {
				bw.Add(1)
				target := readTargets[(round+i)%len(readTargets)]
				go func() {
					defer bw.Done()
					code, body := getJSON(client, base+target)
					mu.Lock()
					defer mu.Unlock()
					res.ReadRequests++
					switch {
					case code == http.StatusOK:
						res.ReadOK++
					case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
						res.ReadShed++
						if !retryAfterPresent(body) {
							res.ShedsMissingRetry++
						}
					default:
						if !okStatus(code) {
							res.UnexpectedStatus[fmt.Sprintf("read:%d", code)]++
						}
					}
				}()
			}
			bw.Wait()
			round++
		}
	}()
	wg.Wait()

	// Read-saturation probe: the natural hammer races fast handlers, so
	// whether its bursts collide inside the admission window is timing luck.
	// Pin the ladder deterministically — occupy every read slot directly and
	// verify the excess query sheds 429 with Retry-After.
	for i := 0; i < readSlots; i++ {
		srv.readSem <- struct{}{}
	}
	satCode, satBody := getJSON(client, base+readTargets[0])
	res.ReadRequests++
	if satCode == http.StatusTooManyRequests || satCode == http.StatusServiceUnavailable {
		res.ReadShed++
		if !retryAfterPresent(satBody) {
			res.ShedsMissingRetry++
		}
	} else {
		res.UnexpectedStatus[fmt.Sprintf("read-saturated:%d", satCode)]++
	}
	for i := 0; i < readSlots; i++ {
		<-srv.readSem
	}

	// Final-accuracy probe: after the overload phase, one generous-deadline
	// diagnosis must still rank the planted cause near the top.
	finalReq := DiagnoseRequest{Symptom: sc.Symptom, DeadlineMs: 60000}
	code, body := postJSON(client, base+"/diagnose", finalReq)
	if code == http.StatusOK {
		var rec ReportRecord
		if json.Unmarshal(body, &rec) == nil && rec.Report != nil {
			// Well-formed means a stamped schema and the requested symptom
			// echoed back — a zero-value Report has neither. An empty cause
			// list is a legitimate verdict (the replayed window dilutes the
			// incident), not a robustness failure.
			res.FinalOK = rec.Report.SchemaVersion == murphy.SchemaVersion &&
				rec.Report.Symptom == sc.Symptom
			res.FinalRanked = rankedWithin(rec.Report, sc.TruthEntity, sc.Acceptable, 3)
		}
	}

	// Drain: readiness must flip off while in-flight work finishes.
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	flipDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(flipDeadline) {
		if getStatus(client, base+"/readyz") == http.StatusServiceUnavailable {
			res.ReadyDuringDrain = true
			// Reads follow the same lifecycle: a draining daemon must answer
			// its query surface with 503, not serve stale results.
			if c, _ := getJSON(client, base+readTargets[0]); c == http.StatusServiceUnavailable {
				res.ReadDrainShed = true
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-drainDone; err != nil {
		res.DrainErr = err.Error()
	}
	// Drop the hammer clients' pooled connections first: a freshly dialed,
	// never-used conn sits in StateNew on the server, and Shutdown only
	// treats those as closable after a 5 s grace — so the timeout must
	// comfortably exceed that grace or an idle keep-alive races it.
	client.CloseIdleConnections()
	if err := ShutdownHTTP(hs, 10*time.Second); err != nil && res.DrainErr == "" {
		res.DrainErr = "http shutdown: " + err.Error()
	}

	// Goroutine reclamation: poll briefly — the runtime needs a moment to
	// retire handler goroutines after the listener closes.
	settle := time.Now().Add(3 * time.Second)
	for {
		res.GoroutineDelta = runtime.NumGoroutine() - baseline
		if res.GoroutineDelta <= 2 || time.Now().After(settle) {
			break
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}

	sort.Float64s(diagMs)
	res.P50DiagMs = percentile(diagMs, 0.50)
	res.P99DiagMs = percentile(diagMs, 0.99)
	res.MaxQueueDepth = srv.maxDepthSnapshot()
	res.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
	return res, nil
}

// maxDepthSnapshot reads the high-water queue depth.
func (s *Server) maxDepthSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxDepth
}

// rankedWithin reports whether the planted cause (or an acceptable
// alternative) appears in the report's top k causes.
func rankedWithin(rep *murphy.Report, truth telemetry.EntityID, acceptable []telemetry.EntityID, k int) bool {
	ok := map[telemetry.EntityID]bool{truth: true}
	for _, id := range acceptable {
		ok[id] = true
	}
	for i, c := range rep.Causes {
		if i >= k {
			break
		}
		if ok[c.Entity] {
			return true
		}
	}
	return false
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// postJSON posts v and returns (status, body). A transport error returns
// status 0, which the callers count as unexpected.
func postJSON(client *http.Client, url string, v any) (int, []byte) {
	buf, err := json.Marshal(v)
	if err != nil {
		return 0, nil
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	return resp.StatusCode, body
}

// retryAfterPresent checks the shed body's retry_after_s field (the header
// is also set; the body field survives the test client's round-trip either
// way).
func retryAfterPresent(body []byte) bool {
	var e errorBody
	return json.Unmarshal(body, &e) == nil && e.RetryAfter > 0
}

// getJSON fetches url and returns (status, body). A transport error returns
// status 0, which the callers count as unexpected.
func getJSON(client *http.Client, url string) (int, []byte) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	return resp.StatusCode, body
}

func getStatus(client *http.Client, url string) int {
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}
