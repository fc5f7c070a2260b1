package main

import (
	"fmt"
	"net/http"
	"time"

	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

// statusError is a non-200 answer from the daemon.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %.200s", e.status, e.body) }

func isShed(err error) bool {
	se, ok := err.(*statusError)
	return ok && shed(se.status)
}

// ingestBatch is the /ingest payload of one slice: observations only, no
// slice number, so the daemon appends them as its next slice.
func ingestBatch(sl slicePoints) *serve.IngestBatch {
	b := &serve.IngestBatch{Observations: make([]serve.IngestPoint, len(sl))}
	for i, p := range sl {
		b.Observations[i] = serve.IngestPoint{Entity: p.entity, Metric: p.metric, Value: p.value}
	}
	return b
}

// postIngest appends one slice through POST /ingest and checks every point
// was accepted.
func postIngest(c *conn, sl slicePoints) (time.Duration, error) {
	resp, err := c.do(http.MethodPost, "/ingest", ingestBatch(sl))
	if err != nil {
		return 0, err
	}
	if resp.status != http.StatusOK {
		return resp.elapsed, &statusError{resp.status, string(resp.body)}
	}
	var res serve.IngestResult
	if err := decodeStrict(resp.body, &res); err != nil {
		return resp.elapsed, fmt.Errorf("decode ingest answer: %w", err)
	}
	if res.Accepted != len(sl) || len(res.Rejected) > 0 {
		return resp.elapsed, fmt.Errorf("ingest accepted %d of %d points (%v)", res.Accepted, len(sl), res.Rejected)
	}
	return resp.elapsed, nil
}

// postDiagnose runs one diagnosis through POST /diagnose and checks the
// answer is a complete report.
func postDiagnose(c *conn, sym telemetry.Symptom) (*serve.ReportRecord, time.Duration, error) {
	resp, err := c.do(http.MethodPost, "/diagnose", &serve.DiagnoseRequest{Symptom: sym})
	if err != nil {
		return nil, 0, err
	}
	if resp.status != http.StatusOK {
		return nil, resp.elapsed, &statusError{resp.status, string(resp.body)}
	}
	var rec serve.ReportRecord
	if err := decodeStrict(resp.body, &rec); err != nil {
		return nil, resp.elapsed, fmt.Errorf("decode report: %w", err)
	}
	switch {
	case rec.Err != "":
		return nil, resp.elapsed, fmt.Errorf("diagnosis of %s failed: %s", sym, rec.Err)
	case rec.Report == nil:
		return nil, resp.elapsed, fmt.Errorf("diagnosis of %s: no report", sym)
	case rec.Report.Partial:
		return nil, resp.elapsed, fmt.Errorf("diagnosis of %s: partial report", sym)
	}
	return &rec, resp.elapsed, nil
}
