package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"murphy/internal/timeseries"
)

// AssocKind distinguishes the directionality knowledge attached to an
// association. Most platform metadata gives only a loose neighborhood
// relation (both directions possible); a known caller→callee edge can be
// recorded as directed (§4.1).
type AssocKind int

const (
	// Bidirectional adds potential-influence edges in both directions.
	Bidirectional AssocKind = iota
	// Directed adds a single influence edge from the first entity to the
	// second.
	Directed
)

// DB is the in-memory monitoring database. It stores entities, their
// metric time series on a shared slice grid, and metadata associations.
//
// Concurrency: every method takes the database's reader/writer lock, so an
// ingest goroutine may append observations (Observe, SetSeries, RecordEvent)
// while diagnosis workers read trailing windows — the always-on daemon's
// append-while-diagnose pattern. Past slices are never rewritten by append
// traffic, so a window read over a fixed [lo, hi) range is stable regardless
// of interleaving. The pointer-returning accessors (Series, Entities,
// AppMembers) hand out shared internals and are only safe against concurrent
// *structural* mutation when treated as read-only snapshots; concurrent
// readers should prefer At/Window/RawWindow, which copy under the lock.
type DB struct {
	// IntervalSeconds is the width of a time slice (600 s in the enterprise
	// environment, 10 s in the microservice emulation).
	IntervalSeconds int

	// mu guards every field below. Write-path methods (AddEntity, Observe,
	// SetSeries, Associate, Remove*, RecordEvent) take it exclusively; read
	// paths share it.
	mu sync.RWMutex

	entities map[EntityID]*Entity
	order    []EntityID // insertion order for deterministic iteration
	series   map[EntityID]map[string]*timeseries.Series
	out      map[EntityID]map[EntityID]bool // directed influence edges
	in       map[EntityID]map[EntityID]bool
	apps     map[string][]EntityID
	length   int // number of time slices present
	events   []Event
}

// NewDB returns an empty monitoring database with the given slice interval.
func NewDB(intervalSeconds int) *DB {
	return &DB{
		IntervalSeconds: intervalSeconds,
		entities:        make(map[EntityID]*Entity),
		series:          make(map[EntityID]map[string]*timeseries.Series),
		out:             make(map[EntityID]map[EntityID]bool),
		in:              make(map[EntityID]map[EntityID]bool),
		apps:            make(map[string][]EntityID),
	}
}

// AddEntity registers an entity. It returns an error on duplicate IDs.
func (db *DB) AddEntity(e *Entity) error {
	if e == nil || e.ID == "" {
		return fmt.Errorf("telemetry: entity must have an ID")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.entities[e.ID]; dup {
		return fmt.Errorf("telemetry: duplicate entity %q", e.ID)
	}
	db.entities[e.ID] = e
	db.order = append(db.order, e.ID)
	db.series[e.ID] = make(map[string]*timeseries.Series)
	if e.App != "" {
		db.apps[e.App] = append(db.apps[e.App], e.ID)
	}
	return nil
}

// Entity returns the entity with the given ID, or nil when unknown.
func (db *DB) Entity(id EntityID) *Entity {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.entities[id]
}

// HasEntity reports whether id is registered.
func (db *DB) HasEntity(id EntityID) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.hasEntityLocked(id)
}

// hasEntityLocked is HasEntity for callers already holding db.mu.
func (db *DB) hasEntityLocked(id EntityID) bool { _, ok := db.entities[id]; return ok }

// Entities returns all entity IDs in insertion order. The slice is shared;
// treat it as read-only.
func (db *DB) Entities() []EntityID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.order
}

// NumEntities returns the number of registered entities.
func (db *DB) NumEntities() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entities)
}

// AppMembers returns the entities tagged as members of app, in insertion
// order. The slice is shared; treat it as read-only.
func (db *DB) AppMembers(app string) []EntityID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.apps[app]
}

// Associate records a metadata association between a and b. Bidirectional
// associations add influence edges both ways (the conservative default of
// §4.1); Directed adds only a→b. Unknown entities are an error.
func (db *DB) Associate(a, b EntityID, kind AssocKind) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.hasEntityLocked(a) || !db.hasEntityLocked(b) {
		return fmt.Errorf("telemetry: association %q-%q references unknown entity", a, b)
	}
	if a == b {
		return fmt.Errorf("telemetry: self association on %q", a)
	}
	db.addEdge(a, b)
	if kind == Bidirectional {
		db.addEdge(b, a)
	}
	return nil
}

func (db *DB) addEdge(from, to EntityID) {
	if db.out[from] == nil {
		db.out[from] = make(map[EntityID]bool)
	}
	if db.in[to] == nil {
		db.in[to] = make(map[EntityID]bool)
	}
	db.out[from][to] = true
	db.in[to][from] = true
}

// RemoveEdge deletes the directed influence edge from→to (and nothing else).
// It is used by the data-degradation experiments (Table 2).
func (db *DB) RemoveEdge(from, to EntityID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.out[from], to)
	delete(db.in[to], from)
}

// RemoveAllEdges drops every association, keeping entities and metrics. The
// evaluation uses it to hand Sage a database whose only edges are a causal
// call-graph DAG.
func (db *DB) RemoveAllEdges() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.out = make(map[EntityID]map[EntityID]bool)
	db.in = make(map[EntityID]map[EntityID]bool)
}

// RemoveEntity deletes an entity together with its metrics and all edges
// touching it (Table 2, "missing entity").
func (db *DB) RemoveEntity(id EntityID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.hasEntityLocked(id) {
		return
	}
	for nb := range db.out[id] {
		delete(db.in[nb], id)
	}
	for nb := range db.in[id] {
		delete(db.out[nb], id)
	}
	delete(db.out, id)
	delete(db.in, id)
	e := db.entities[id]
	if e.App != "" {
		members := db.apps[e.App]
		for i, m := range members {
			if m == id {
				db.apps[e.App] = append(members[:i:i], members[i+1:]...)
				break
			}
		}
	}
	delete(db.entities, id)
	delete(db.series, id)
	for i, o := range db.order {
		if o == id {
			db.order = append(db.order[:i:i], db.order[i+1:]...)
			break
		}
	}
}

// RemoveMetric deletes one metric series of an entity (Table 2,
// "missing metric").
func (db *DB) RemoveMetric(id EntityID, metric string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if m := db.series[id]; m != nil {
		delete(m, metric)
	}
}

// OutNeighbors returns the entities that id may influence, sorted.
func (db *DB) OutNeighbors(id EntityID) []EntityID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedKeys(db.out[id])
}

// Neighbors returns the union of in- and out-neighbors, sorted: the loose
// "neighborhood" used to grow the relationship graph.
func (db *DB) Neighbors(id EntityID) []EntityID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	set := make(map[EntityID]bool, len(db.out[id])+len(db.in[id]))
	for nb := range db.out[id] {
		set[nb] = true
	}
	for nb := range db.in[id] {
		set[nb] = true
	}
	return sortedKeys(set)
}

func sortedKeys(m map[EntityID]bool) []EntityID {
	out := make([]EntityID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetSeries installs (replacing) the series for one metric of an entity and
// extends the database timeline if needed.
func (db *DB) SetSeries(id EntityID, metric string, s *timeseries.Series) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.hasEntityLocked(id) {
		return fmt.Errorf("telemetry: SetSeries on unknown entity %q", id)
	}
	db.series[id][metric] = s
	if s.Len() > db.length {
		db.length = s.Len()
	}
	return nil
}

// Observe appends v at slice t for the metric, growing the series as needed.
func (db *DB) Observe(id EntityID, metric string, t int, v float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.hasEntityLocked(id) {
		return fmt.Errorf("telemetry: Observe on unknown entity %q", id)
	}
	s := db.series[id][metric]
	if s == nil {
		s = timeseries.New()
		db.series[id][metric] = s
	}
	s.Set(t, v)
	if t+1 > db.length {
		db.length = t + 1
	}
	return nil
}

// Len returns the number of time slices on the shared grid.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.length
}

// Series returns the series for (id, metric), or nil when absent. The
// returned series is shared; treat it as read-only.
func (db *DB) Series(id EntityID, metric string) *timeseries.Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[id][metric]
}

// MetricNames returns the sorted metric names recorded for an entity.
func (db *DB) MetricNames(id EntityID) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.series[id]
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// At returns the value of (id, metric) at slice t, or NaN when missing.
func (db *DB) At(id EntityID, metric string, t int) float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[id][metric]
	if s == nil {
		return math.NaN()
	}
	return s.At(t)
}

// Window returns a copy of (id, metric) over [lo, hi), with missing values
// filled by the type-appropriate default (0), implementing the paper's
// placeholder rule for entities with missing history.
func (db *DB) Window(id EntityID, metric string, lo, hi int) []float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[id][metric]
	if s == nil {
		out := make([]float64, hi-lo)
		return out
	}
	w := s.Window(lo, hi)
	// Pad to the requested width so callers get aligned slices even at the
	// ragged end of the timeline.
	for len(w) < hi-lo {
		w = append(w, timeseries.Missing)
	}
	for i, v := range w {
		if timeseries.IsMissing(v) {
			w[i] = 0
		}
	}
	return w
}

// RawWindow returns a copy of (id, metric) over [lo, hi) with missing
// observations preserved as NaN (unlike Window, which fills placeholders).
// An absent metric yields an all-missing slice of the requested width.
func (db *DB) RawWindow(id EntityID, metric string, lo, hi int) []float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[id][metric]
	if s == nil {
		out := make([]float64, hi-lo)
		for i := range out {
			out[i] = timeseries.Missing
		}
		return out
	}
	w := s.Window(lo, hi)
	for len(w) < hi-lo {
		w = append(w, timeseries.Missing)
	}
	return w
}

// Clone returns a deep copy of the database (entities, edges, series). The
// degradation experiments corrupt a clone, never the original.
func (db *DB) Clone() *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := NewDB(db.IntervalSeconds)
	c.length = db.length
	for _, id := range db.order {
		e := *db.entities[id]
		if e.Attrs != nil {
			attrs := make(map[string]string, len(e.Attrs))
			for k, v := range e.Attrs {
				attrs[k] = v
			}
			e.Attrs = attrs
		}
		if err := c.AddEntity(&e); err != nil {
			panic("telemetry: clone: " + err.Error())
		}
		for name, s := range db.series[id] {
			c.series[id][name] = s.Clone()
		}
	}
	for from, tos := range db.out {
		for to := range tos {
			c.addEdge(from, to)
		}
	}
	c.events = append([]Event(nil), db.events...)
	return c
}

// snapshot is the JSON wire form of a DB. V is one series' values:
// WriteJSON encodes them through seriesJSON, ReadJSON decodes snapValues.
type snapshot[V any] struct {
	IntervalSeconds int                       `json:"interval_seconds"`
	Entities        []*Entity                 `json:"entities"`
	Edges           [][2]EntityID             `json:"edges"`
	Series          map[EntityID]map[string]V `json:"series"`
	Events          []Event                   `json:"events,omitempty"`
}

// WriteJSON serializes the database as JSON. JSON has no NaN, so a missing
// point is written as null, and ReadJSON reads it back as missing: gaps
// survive a WriteJSON/ReadJSON round trip. A series without gaps is a plain
// number array, so a fully observed database's snapshot holds no null.
func (db *DB) WriteJSON(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := snapshot[any]{IntervalSeconds: db.IntervalSeconds}
	for _, id := range db.order {
		snap.Entities = append(snap.Entities, db.entities[id])
	}
	for _, from := range db.order {
		for _, to := range sortedKeys(db.out[from]) {
			snap.Edges = append(snap.Edges, [2]EntityID{from, to})
		}
	}
	snap.Series = make(map[EntityID]map[string]any, len(db.series))
	for id, metrics := range db.series {
		m := make(map[string]any, len(metrics))
		for name, s := range metrics {
			m[name] = seriesJSON(s.Values())
		}
		snap.Series[id] = m
	}
	snap.Events = db.events
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// seriesJSON is what WriteJSON encodes for one series' values (read under
// the database's lock): the plain number array when every point is
// observed, and otherwise pointers to the observed points, which encode as
// the same numbers, with nil, encoded as null, at each gap.
func seriesJSON(vals []float64) any {
	if !slices.ContainsFunc(vals, timeseries.IsMissing) {
		return vals
	}
	ptrs := make([]*float64, len(vals))
	for i := range vals {
		if !timeseries.IsMissing(vals[i]) {
			ptrs[i] = &vals[i]
		}
	}
	return ptrs
}

// snapValues decodes one series' values, reading null as missing.
type snapValues []float64

// UnmarshalJSON parses a JSON array of numbers and nulls. The decoder has
// already checked that data is one valid JSON value, so splitting at commas
// is safe: an element that is neither a number nor null (a string, an
// object, a nested array) fails to parse as a number.
func (v *snapValues) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	body, ok := bytes.CutPrefix(data, []byte("["))
	if !ok {
		return fmt.Errorf("telemetry: series values are not an array")
	}
	body = bytes.TrimSpace(bytes.TrimSuffix(body, []byte("]")))
	// Grown by append, as the standard decoder grows a slice, so a series
	// keeps the spare capacity later ingests append into.
	vals := []float64{}
	for len(body) > 0 {
		var tok []byte
		tok, body, _ = bytes.Cut(body, []byte(","))
		tok = bytes.TrimSpace(tok)
		if string(tok) == "null" {
			vals = append(vals, timeseries.Missing)
			continue
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return fmt.Errorf("telemetry: series value %s: %w", tok, err)
		}
		vals = append(vals, f)
	}
	*v = vals
	return nil
}

// ReadJSON deserializes a database previously written by WriteJSON.
func ReadJSON(r io.Reader) (*DB, error) {
	var snap snapshot[snapValues]
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	if snap.IntervalSeconds <= 0 {
		return nil, fmt.Errorf("telemetry: snapshot has invalid interval %d", snap.IntervalSeconds)
	}
	db := NewDB(snap.IntervalSeconds)
	for _, e := range snap.Entities {
		if err := db.AddEntity(e); err != nil {
			return nil, err
		}
	}
	for _, ed := range snap.Edges {
		if err := db.Associate(ed[0], ed[1], Directed); err != nil {
			return nil, err
		}
	}
	for id, metrics := range snap.Series {
		if !db.HasEntity(id) {
			return nil, fmt.Errorf("telemetry: snapshot series for unknown entity %q", id)
		}
		for name, vals := range metrics {
			if err := db.SetSeries(id, name, timeseries.FromValues(vals)); err != nil {
				return nil, err
			}
		}
	}
	for _, ev := range snap.Events {
		if err := db.RecordEvent(ev); err != nil {
			return nil, err
		}
	}
	return db, nil
}
