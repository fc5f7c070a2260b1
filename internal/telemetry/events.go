package telemetry

import (
	"fmt"
	"sort"
)

// EventKind classifies a configuration-change event recorded by the
// monitoring platform.
type EventKind string

// Configuration-change kinds the platform records.
const (
	EventEntityCreated EventKind = "entity-created"
	EventEntityRemoved EventKind = "entity-removed"
	EventConfigChanged EventKind = "config-changed"
	EventMigrated      EventKind = "migrated"
	EventScaled        EventKind = "scaled"
)

// Event is one configuration change: Murphy presents recent ones alongside
// its diagnosis to catch problems caused by recently spawned or modified
// entities (§4.2 edge cases).
type Event struct {
	// Slice is the time slice the change happened in.
	Slice int
	// Kind classifies the change.
	Kind EventKind
	// Entity is the affected entity.
	Entity EntityID
	// Detail is a human-readable description ("vCPUs 4 -> 8").
	Detail string
}

// String renders the event for operator display.
func (e Event) String() string {
	return fmt.Sprintf("[t=%d] %s %s: %s", e.Slice, e.Entity, e.Kind, e.Detail)
}

// RecordEvent appends a configuration-change event. Unknown entities are an
// error except for removals, which naturally reference entities that are
// already gone.
func (db *DB) RecordEvent(ev Event) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if ev.Kind != EventEntityRemoved && !db.hasEntityLocked(ev.Entity) {
		return fmt.Errorf("telemetry: event for unknown entity %q", ev.Entity)
	}
	if ev.Slice < 0 {
		return fmt.Errorf("telemetry: event with negative slice %d", ev.Slice)
	}
	db.events = append(db.events, ev)
	return nil
}

// EventsSince returns the events at slice >= since, ordered by slice (stable
// for equal slices). Murphy shows these next to the root-cause list.
func (db *DB) EventsSince(since int) []Event {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Event
	for _, ev := range db.events {
		if ev.Slice >= since {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Slice < out[j].Slice })
	return out
}
