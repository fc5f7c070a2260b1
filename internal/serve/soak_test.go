package serve

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"murphy/internal/microsim"
)

// TestChaosSoakLadder runs the full chaos soak drill at reduced duration and
// asserts the degradation ladder end to end: partial-result reports over
// failures, bounded queue depth, sheds with Retry-After, zero goroutine
// leaks, and readiness flipping correctly across drain.
func TestChaosSoakLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("soak drill skipped in -short mode")
	}
	opts := DefaultSoakOptions()
	opts.Duration = 1500 * time.Millisecond
	opts.Steps = 120
	opts.Samples = 120
	opts.TrainWindow = 80
	opts.SnapshotPath = filepath.Join(t.TempDir(), "state.json")

	res, err := RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	for _, v := range res.Violations() {
		t.Errorf("degradation ladder violated: %s", v)
	}
	// Beyond the ladder: the drill must actually have exercised overload
	// (requests offered past capacity on both paths).
	if res.IngestOK == 0 {
		t.Error("no ingest batch was accepted")
	}
	if res.DiagnoseRequests < res.OfferedBurst {
		t.Errorf("drill offered only %d diagnoses, want at least one full burst of %d", res.DiagnoseRequests, res.OfferedBurst)
	}
	if res.ReadRequests < res.ReadBurst {
		t.Errorf("drill offered only %d reads, want at least one full burst of %d", res.ReadRequests, res.ReadBurst)
	}
	// And the periodic snapshot loop must have persisted state: a restart
	// can recover the database the drill built.
	db, restore, err := RecoverFromDisk(opts.SnapshotPath)
	if err != nil {
		t.Fatalf("post-soak recovery: %v", err)
	}
	if db == nil || restore == nil {
		t.Fatal("soak left no recoverable snapshot")
	}
	if db.Len() == 0 {
		t.Fatal("recovered snapshot has an empty telemetry grid")
	}
}

// TestSoakIngestHasNoGaps: a soak that sheds ingest batches still writes
// every slice from the boot database's end to its newest, because a shed
// batch is posted again at the same slice, and the daemon rejects none of
// the hammer's points. The check reads the drained daemon's state snapshot,
// which stores a missing point as 0: every replayed series must hold its
// replay source's value, within the hammer's ±0.5% jitter, at each of
// those slices, so a slice that was never written shows up as a 0 where
// the source is not.
func TestSoakIngestHasNoGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak drill skipped in -short mode")
	}
	opts := DefaultSoakOptions()
	opts.Duration = time.Second
	opts.Steps = 120
	opts.Samples = 120
	opts.TrainWindow = 80
	opts.SnapshotPath = filepath.Join(t.TempDir(), "state.json")
	res, err := RunSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.IngestShed == 0 {
		t.Fatalf("no ingest batch was shed, so re-posting went unexercised: %+v", res)
	}
	if res.IngestRejected != 0 {
		t.Errorf("daemon rejected %d ingested points", res.IngestRejected)
	}

	// The boot database and the replay source, as RunSoak builds them.
	simOpts := microsim.DefaultInterferenceOptions()
	simOpts.Steps = opts.Steps
	simOpts.Seed = opts.Seed
	sc, err := microsim.Interference(simOpts)
	if err != nil {
		t.Fatal(err)
	}
	boot := sc.Result.DB
	bootLen := boot.Len()
	replayLen := min(opts.TrainWindow, bootLen)
	ents := boot.Entities()
	if len(ents) > 8 {
		ents = ents[:8]
	}

	db, _, err := RecoverFromDisk(opts.SnapshotPath)
	if err != nil || db == nil {
		t.Fatalf("post-soak recovery: db=%v err=%v", db, err)
	}
	if db.Len() <= bootLen {
		t.Fatalf("soak database has %d slices, boot database %d: nothing was ingested", db.Len(), bootLen)
	}
	checked := 0
	for _, id := range ents {
		for _, metric := range boot.MetricNames(id) {
			src := boot.RawWindow(id, metric, bootLen-replayLen, bootLen)
			got := db.RawWindow(id, metric, bootLen, db.Len())
			for i, v := range got {
				want := src[i%replayLen]
				if want != want {
					continue // missing in the source: the hammer posts nothing
				}
				if math.Abs(v-want) > 0.006*math.Abs(want) {
					t.Fatalf("%s/%s at slice %d: %v, replay source %v (slices %d..%d ingested)",
						id, metric, bootLen+i, v, want, bootLen, db.Len()-1)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no replayed point checked")
	}
	t.Logf("%d ingest requests, %d shed and posted again; %d points over slices %d..%d match their source",
		res.IngestRequests, res.IngestShed, checked, bootLen, db.Len()-1)
}
