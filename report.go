package murphy

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"murphy/internal/core"
	"murphy/internal/telemetry"
)

// SchemaVersion is the version of the public Report JSON schema, stamped on
// every Report this package produces. It increments when the wire format
// changes incompatibly; ReadJSON rejects reports from a newer schema.
const SchemaVersion = 1

// Cause is one diagnosed root cause with its explanation chain. It is a
// self-contained public schema: every field serializes to JSON (NaN p-values
// and effects of degraded verdicts become null).
type Cause struct {
	// Entity is the diagnosed root-cause entity.
	Entity telemetry.EntityID
	// Score is the anomaly score used for ranking (higher ranks first).
	Score float64
	// PValue is the Welch t-test p-value of the counterfactual shift (NaN
	// for degraded verdicts).
	PValue float64
	// Effect is the mean shift of the symptom metric under the
	// counterfactual, in units of the symptom metric's historical std
	// (positive = the counterfactual alleviates the symptom; NaN for
	// degraded verdicts).
	Effect float64
	// Path is the shortest-path subgraph (candidate → symptom) the
	// resampler walked, in resampling order. Treat it as read-only.
	Path []telemetry.EntityID
	// SamplesUsed is the total number of Monte-Carlo draws the verdict
	// consumed across the factual and counterfactual runs.
	SamplesUsed int
	// Degraded marks an anomaly-score-only fallback verdict: the
	// candidate's counterfactual evaluation failed or was cut off, so it
	// was ranked by anomaly score alone without the significance test.
	Degraded bool
	// Reason explains a degraded verdict ("deadline exceeded", "panic: …").
	Reason string
	// Explanation is the label-respecting causal chain from this root cause
	// to the symptom entity, or empty when no chain exists.
	Explanation string
}

// causeFromCore flattens an internal verdict into the public schema.
func causeFromCore(c core.RootCause) Cause {
	return Cause{
		Entity:      c.Entity,
		Score:       c.Score,
		PValue:      c.PValue,
		Effect:      c.Effect,
		Path:        c.Path,
		SamplesUsed: c.SamplesUsed,
		Degraded:    c.Degraded,
		Reason:      c.Reason,
	}
}

// causeWire is the JSON form of Cause. PValue/Effect are pointers so the NaN
// of a degraded verdict round-trips as null (NaN is not valid JSON).
type causeWire struct {
	Entity      telemetry.EntityID   `json:"entity"`
	Score       float64              `json:"score"`
	PValue      *float64             `json:"p_value"`
	Effect      *float64             `json:"effect"`
	Path        []telemetry.EntityID `json:"path,omitempty"`
	SamplesUsed int                  `json:"samples_used,omitempty"`
	Degraded    bool                 `json:"degraded,omitempty"`
	Reason      string               `json:"reason,omitempty"`
	Explanation string               `json:"explanation,omitempty"`
}

// fptr maps a float to its wire form: NaN (and ±Inf) become null.
func fptr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// fval maps a wire float back: null becomes NaN.
func fval(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// MarshalJSON implements json.Marshaler with the public cause schema.
func (c Cause) MarshalJSON() ([]byte, error) {
	return json.Marshal(causeWire{
		Entity:      c.Entity,
		Score:       c.Score,
		PValue:      fptr(c.PValue),
		Effect:      fptr(c.Effect),
		Path:        c.Path,
		SamplesUsed: c.SamplesUsed,
		Degraded:    c.Degraded,
		Reason:      c.Reason,
		Explanation: c.Explanation,
	})
}

// UnmarshalJSON implements json.Unmarshaler for the public cause schema.
func (c *Cause) UnmarshalJSON(data []byte) error {
	var w causeWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*c = Cause{
		Entity:      w.Entity,
		Score:       w.Score,
		PValue:      fval(w.PValue),
		Effect:      fval(w.Effect),
		Path:        w.Path,
		SamplesUsed: w.SamplesUsed,
		Degraded:    w.Degraded,
		Reason:      w.Reason,
		Explanation: w.Explanation,
	}
	return nil
}

// Skipped records one candidate whose counterfactual evaluation did not
// complete, and why (deadline exceeded, cancellation, evaluator panic).
type Skipped struct {
	Entity telemetry.EntityID `json:"entity"`
	Reason string             `json:"reason"`
}

// Report is the result of one diagnosis: a versioned, self-contained,
// JSON-serializable schema (WriteJSON/ReadJSON round-trip it).
type Report struct {
	// SchemaVersion is the report schema version (SchemaVersion at
	// production time).
	SchemaVersion int
	// Symptom is the diagnosed (entity, metric, direction) triple.
	Symptom telemetry.Symptom
	// Causes is the ranked root-cause list, most anomalous first. Fully
	// certified causes come first; when the diagnosis degraded (deadline,
	// faults, a panicking evaluation), anomaly-score-only fallback entries
	// follow, flagged with Degraded=true — a degraded guess never displaces
	// a certified cause.
	Causes []Cause
	// Candidates is the pruned search space that was evaluated.
	Candidates []telemetry.EntityID
	// RecentChanges lists configuration changes in the training window;
	// Murphy surfaces them so the operator can catch problems caused by
	// recently spawned or reconfigured entities (§4.2 edge cases).
	RecentChanges []telemetry.Event
	// Partial is true when not every candidate was fully evaluated: the
	// ranking is valid but may be incomplete.
	Partial bool
	// Skipped lists the candidates that were not fully evaluated and why.
	Skipped []Skipped
	// ReadFailures counts telemetry reads that failed even after the
	// resilience layer's retries; the affected series were treated as
	// missing data during training.
	ReadFailures int
}

// eventWire is the JSON form of a recent-changes entry. telemetry.Event
// itself is serialized untagged inside the DB snapshot format, so the report
// schema carries its own tagged mirror instead of re-tagging it.
type eventWire struct {
	Slice  int                 `json:"slice"`
	Kind   telemetry.EventKind `json:"kind"`
	Entity telemetry.EntityID  `json:"entity"`
	Detail string              `json:"detail,omitempty"`
}

// reportWire is the JSON form of Report.
type reportWire struct {
	SchemaVersion int                  `json:"schema_version"`
	Symptom       telemetry.Symptom    `json:"symptom"`
	Causes        []Cause              `json:"causes"`
	Candidates    []telemetry.EntityID `json:"candidates,omitempty"`
	RecentChanges []eventWire          `json:"recent_changes,omitempty"`
	Partial       bool                 `json:"partial,omitempty"`
	Skipped       []Skipped            `json:"skipped,omitempty"`
	ReadFailures  int                  `json:"read_failures,omitempty"`
}

// MarshalJSON implements json.Marshaler with the versioned report schema. A
// zero SchemaVersion (a hand-built Report) is stamped with the current one.
func (r *Report) MarshalJSON() ([]byte, error) {
	w := reportWire{
		SchemaVersion: r.SchemaVersion,
		Symptom:       r.Symptom,
		Causes:        r.Causes,
		Candidates:    r.Candidates,
		Partial:       r.Partial,
		Skipped:       r.Skipped,
		ReadFailures:  r.ReadFailures,
	}
	if w.SchemaVersion == 0 {
		w.SchemaVersion = SchemaVersion
	}
	for _, ev := range r.RecentChanges {
		w.RecentChanges = append(w.RecentChanges, eventWire{
			Slice: ev.Slice, Kind: ev.Kind, Entity: ev.Entity, Detail: ev.Detail,
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler for the versioned report schema.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w reportWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{
		SchemaVersion: w.SchemaVersion,
		Symptom:       w.Symptom,
		Causes:        w.Causes,
		Candidates:    w.Candidates,
		Partial:       w.Partial,
		Skipped:       w.Skipped,
		ReadFailures:  w.ReadFailures,
	}
	for _, ev := range w.RecentChanges {
		r.RecentChanges = append(r.RecentChanges, telemetry.Event{
			Slice: ev.Slice, Kind: ev.Kind, Entity: ev.Entity, Detail: ev.Detail,
		})
	}
	return nil
}

// WriteJSON serializes the report (indented, schema-versioned) to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON deserializes a report produced by WriteJSON (or any JSON encoding
// of Report). Reports from a newer schema version are rejected rather than
// silently misread.
func ReadJSON(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("murphy: decode report: %w", err)
	}
	if r.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("murphy: report schema version %d is newer than supported %d", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Top returns the first k causes of a report (or fewer).
func (r *Report) Top(k int) []Cause {
	if k > len(r.Causes) {
		k = len(r.Causes)
	}
	return r.Causes[:k]
}
