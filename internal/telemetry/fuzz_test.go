package telemetry

import (
	"bytes"
	"testing"
)

// fuzzSeedSnapshot builds a small valid snapshot for the corpus.
func fuzzSeedSnapshot() []byte {
	db := NewDB(60)
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(db.AddEntity(&Entity{ID: "vm-1", Type: TypeVM, App: "shop"}))
	must(db.AddEntity(&Entity{ID: "host-1", Type: TypeNode}))
	must(db.Associate("vm-1", "host-1", Bidirectional))
	must(db.Observe("vm-1", MetricCPU, 0, 0.5))
	must(db.Observe("vm-1", MetricCPU, 1, 0.7))
	must(db.Observe("host-1", MetricCPU, 0, 0.2))
	must(db.Observe("host-1", MetricCPU, 1, 0.3))
	must(db.RecordEvent(Event{Slice: 1, Entity: "vm-1", Kind: EventConfigChanged, Detail: "resize"}))
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadJSON checks that snapshot ingestion never panics on arbitrary
// bytes, and that any accepted snapshot survives a write→read→write round
// trip with identical serialized bytes (WriteJSON is deterministic: ordered
// entities, sorted edges, sorted JSON object keys).
func FuzzReadJSON(f *testing.F) {
	f.Add(fuzzSeedSnapshot())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"interval_seconds":1,"entities":[{"id":"a"}],"edges":[["a","a"]],"series":{"a":{"cpu":[1,2]}}}`))
	f.Add([]byte(`{"interval_seconds":-5,"entities":[{"id":"a"},{"id":"a"}],"series":{"b":{"m":[0]}}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"series":{"x":{"m":[1e308,-1e308,0.0000001]}}}`))
	f.Add([]byte(`{"interval_seconds":1,"entities":[{"id":"a"}],"series":{"a":{"cpu":[null,1, null ,0],"mem":[null]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var first bytes.Buffer
		if err := db.WriteJSON(&first); err != nil {
			t.Fatalf("accepted snapshot failed to serialize: %v", err)
		}
		db2, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, first.String())
		}
		if db.Len() != db2.Len() || db.NumEntities() != db2.NumEntities() {
			t.Fatalf("round trip changed shape: %d slices/%d entities vs %d/%d",
				db.Len(), db.NumEntities(), db2.Len(), db2.NumEntities())
		}
		var second bytes.Buffer
		if err := db2.WriteJSON(&second); err != nil {
			t.Fatalf("second serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write is not a fixed point:\n first: %s\nsecond: %s", first.String(), second.String())
		}
	})
}
