package telemetry_test

import (
	"bytes"
	"testing"

	"murphy/internal/microsim"
	"murphy/internal/telemetry"
)

// benchSnapshotDB is a triage-sized database: perfbench's social-network
// incident (400 slices, 4 prior incidents), every point observed, as
// murphygen and perfbench write their snapshots.
func benchSnapshotDB(b *testing.B) *telemetry.DB {
	b.Helper()
	sc, err := microsim.Contention(microsim.ContentionOptions{
		Topo: "social", Steps: 400, PriorIncidents: 4,
		Kind: microsim.FaultCPU, Intensity: 0.55, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sc.Result.DB
}

// BenchmarkSnapshotWriteJSON times WriteJSON on a triage-sized database;
// murphyd's -state snapshots pay it every -snapshot-every.
func BenchmarkSnapshotWriteJSON(b *testing.B) {
	db := benchSnapshotDB(b)
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := db.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotReadJSON times ReadJSON of the same snapshot; murphyd's
// boot (-snapshot or -state) pays it once.
func BenchmarkSnapshotReadJSON(b *testing.B) {
	db := benchSnapshotDB(b)
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := telemetry.ReadJSON(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchSinkDB = db
	}
}

// benchSinkDB keeps ReadJSON's result alive, so the call is not optimized
// away.
var benchSinkDB *telemetry.DB
