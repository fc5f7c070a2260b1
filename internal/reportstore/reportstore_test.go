package reportstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRecord(i int) *Record {
	return &Record{
		At:     time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Source: []string{"api", "detector"}[i%2],
		Entity: fmt.Sprintf("svc-%d", i%5),
		Metric: "latency",
		App:    fmt.Sprintf("app-%d", i%3),
		Causes: []string{fmt.Sprintf("cause-%d", i%7)},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestAppendAssignsMonotonicSeqs(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 10; i++ {
		seq, err := st.Append(testRecord(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := int64(i + 1); seq != want {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, want)
		}
	}
	if got := st.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	// A caller-provided seq ahead of the store is adopted; one behind is not.
	seq, err := st.Append(&Record{Seq: 100, Entity: "e"})
	if err != nil || seq != 100 {
		t.Fatalf("adopt caller seq: got (%d, %v), want (100, nil)", seq, err)
	}
	seq, err = st.Append(&Record{Seq: 7, Entity: "e"})
	if err != nil || seq != 101 {
		t.Fatalf("stale caller seq: got (%d, %v), want (101, nil)", seq, err)
	}
}

// TestReopenRecoversAcknowledgedRecords is the kill -9 contract: every record
// whose Append returned is replayed by a fresh Open over the same directory,
// with no Close in between (a crashed process never closes), with every
// indexed field and its payload bytes intact.
func TestReopenRecoversAcknowledgedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 100
	var want []*Record
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if i%10 != 9 { // every tenth record has no payload
			rec.Payload = json.RawMessage(fmt.Sprintf(`{"seq":%d,"note":"say \"hi\", \"payload\": %d","report":{"causes":[{"entity":"cause-%d"}]}}`, i+1, i, i%7))
		}
		if _, err := st.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	// No st.Close(): simulate kill -9 by abandoning the handle.
	re := mustOpen(t, dir, Options{})
	if got := re.Len(); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	page, err := re.Query(Query{Limit: MaxLimit})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i, rec := range page.Records {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
		if !reflect.DeepEqual(rec, want[i]) {
			t.Fatalf("record %d: recovered %+v (payload %s), appended %+v (payload %s)", i, rec, rec.Payload, want[i], want[i].Payload)
		}
	}
	st.Close()
}

// TestReplayMatchesFullDecode opens a segment of mixed frames: payload-bearing
// and bare frames from Append, and hand-built frames with reordered and
// duplicate keys, the payload key inside string values and nested objects,
// padding and a member after the payload, then a torn tail. Every record must
// equal json.Unmarshal of its frame, and the frames Append wrote must take
// the index-only decode.
func TestReplayMatchesFullDecode(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for i := 0; i < 6; i++ {
		rec := testRecord(i)
		if i%3 != 2 {
			rec.Payload = json.RawMessage(fmt.Sprintf(`{"seq":%d,"explanation":"a \"chain\", \"payload\": {}","causes":[%d]}`, i+1, i))
		}
		rec.Entity = []string{"svc", `a,"payload":b`, `say "hi"`}[i%3]
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName)
	appended, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	handBuilt := []string{
		`{"payload":{"a":[1,2]},"seq":7,"at":"2026-01-02T00:00:00Z","entity":"first"}`,
		`{"seq":8,"entity":"middle","payload":{"a":1},"causes":["c"]}`,
		`{"seq":9,"entity":"a","seq":9,"entity":"b","causes":["x"],"causes":["y"],"payload":[1]}`,
		`{"Payload":[0],"seq":10,"entity":"e","payload":[1]}`,
		`{"seq":11,"extra":{"a":1,"payload":2},"entity":"nested","payload":{}}`,
		`{"seq":12,"entity":"e", "payload":{"a":1,"payload":2}}`,
		`{"seq":13,"entity":"padded","payload": {"a":1} }`,
		`{"seq":14,"entity":"spaced" ,"payload":"\"quoted\""}`,
		`{"seq":15,"entity":"null","payload":null}`,
	}
	buf := appended
	for _, body := range handBuilt {
		buf = encodeFrame(buf, []byte(body))
	}
	good := len(buf)
	buf = encodeFrame(buf, []byte(`{"seq":16,"entity":"torn","payload":{}}`))[:good+12]
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	var bodies [][]byte
	for off := 0; off < good; {
		n := int(binary.BigEndian.Uint32(buf[off:]))
		bodies = append(bodies, buf[off+frameHeaderLen:off+frameHeaderLen+n])
		off += frameHeaderLen + n
	}
	for i, body := range bodies[:6] {
		if _, ok := decodeIndex(body); ok != (i%3 != 2) {
			t.Errorf("Append frame %d (payload %v): index-only decode %v", i, i%3 != 2, ok)
		}
	}

	re := mustOpen(t, dir, Options{})
	if tr := re.Stats().Truncated; tr != int64(len(buf)-good) {
		t.Fatalf("truncated %d bytes, want the %d-byte torn tail", tr, len(buf)-good)
	}
	page, err := re.Query(Query{Limit: MaxLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != len(bodies) {
		t.Fatalf("replayed %d records, want %d", len(page.Records), len(bodies))
	}
	for i, body := range bodies {
		var want Record
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := page.Records[i]; !reflect.DeepEqual(*got, want) {
			t.Errorf("frame %d: replayed %+v (payload %s), json.Unmarshal %+v (payload %s)", i, *got, got.Payload, want, want.Payload)
		}
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop three bytes off the final record: a crash mid-write.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	if got := re.Len(); got != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", got)
	}
	if tr := re.Stats().Truncated; tr == 0 {
		t.Fatal("Stats.Truncated = 0, want > 0")
	}
	// Appends continue cleanly on the repaired boundary.
	seq, err := re.Append(testRecord(99))
	if err != nil || seq != 10 {
		t.Fatalf("append after repair: got (%d, %v), want (10, nil)", seq, err)
	}
	re2 := mustOpen(t, dir, Options{})
	if got := re2.Len(); got != 10 {
		t.Fatalf("re-recovered %d records, want 10", got)
	}
}

// TestAppendOverwritesStrayBytes: bytes a failed write left past the last
// good frame never end up in front of the next acknowledged frame, where a
// reopen's torn-tail truncation would drop it.
func TestAppendOverwritesStrayBytes(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	if _, err := st.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// What a write that failed part-way leaves behind: bytes past the last
	// good frame, with the handle's offset after them.
	if _, err := st.f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := st.f.Write([]byte("junk!")); err != nil {
		t.Fatal(err)
	}
	if seq, err := st.Append(testRecord(1)); err != nil || seq != 2 {
		t.Fatalf("Append after stray bytes: got (%d, %v), want (2, nil)", seq, err)
	}
	re := mustOpen(t, dir, Options{}) // no Close: kill -9
	if got, tr := re.Len(), re.Stats().Truncated; got != 2 || tr != 0 {
		t.Fatalf("reopen recovered %d records and truncated %d bytes, want 2 and 0", got, tr)
	}
}

// TestFailedAppendLeavesStoreUnchanged: an Append whose write fails neither
// advances the sequence nor indexes the record.
func TestFailedAppendLeavesStoreUnchanged(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	if _, err := st.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	st.f.Close() // the next write fails
	if _, err := st.Append(testRecord(1)); err == nil {
		t.Fatal("Append on a closed segment handle succeeded")
	}
	if last, n := st.LastSeq(), st.Len(); last != 1 || n != 1 {
		t.Fatalf("after a failed Append: LastSeq %d with %d records, want 1 and 1", last, n)
	}
}

// TestAppendRefusesOversizedFrame: replay reads a frame longer than the cap
// as a torn tail and drops it with everything after it, so Append refuses
// such a record instead of acknowledging it.
func TestAppendRefusesOversizedFrame(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	if _, err := st.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	big := testRecord(1)
	big.Payload = json.RawMessage(`"` + strings.Repeat("a", maxFrameLen) + `"`)
	if _, err := st.Append(big); err == nil {
		t.Fatal("Append of a record over the frame cap succeeded")
	}
	if after := st.Stats(); after != before {
		t.Fatalf("the refused Append changed the store: %+v, want %+v", after, before)
	}
	if seq, err := st.Append(testRecord(2)); err != nil || seq != 2 {
		t.Fatalf("Append after the refused one: got (%d, %v), want (2, nil)", seq, err)
	}
	re := mustOpen(t, dir, Options{}) // no Close: kill -9
	if got, tr := re.Len(), re.Stats().Truncated; got != 2 || tr != 0 {
		t.Fatalf("reopen recovered %d records and truncated %d bytes, want 2 and 0", got, tr)
	}
}

func TestCorruptTailCRCDropped(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF // flip a payload byte in the final record
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	if got := re.Len(); got != 4 {
		t.Fatalf("recovered %d records after CRC corruption, want 4", got)
	}
}

func TestRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{MaxRecords: 100, NoSync: true})
	for i := 0; i < 1000; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatal("no compactions after 10x overshoot")
	}
	if stats.Records > 125 {
		t.Fatalf("retained %d records, want <= 125", stats.Records)
	}
	// The newest records survive, contiguous up to the last seq.
	page, err := st.Query(Query{AfterSeq: 1000 - int64(stats.Records), Limit: MaxLimit})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(page.Records) != stats.Records {
		t.Fatalf("queried %d, want %d", len(page.Records), stats.Records)
	}
	if last := page.Records[len(page.Records)-1].Seq; last != 1000 {
		t.Fatalf("last seq %d, want 1000", last)
	}
	// The compacted segment survives reopen with identical contents.
	st.Close()
	re := mustOpen(t, dir, Options{MaxRecords: 100})
	if re.Len() != stats.Records || re.LastSeq() != 1000 {
		t.Fatalf("reopen: %d records last %d, want %d last 1000", re.Len(), re.LastSeq(), stats.Records)
	}
}

func TestQueryFilters(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{NoSync: true})
	for i := 0; i < 60; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{Limit: MaxLimit}, 60},
		{"entity", Query{Entity: "svc-0", Limit: MaxLimit}, 12},
		{"app", Query{App: "app-1", Limit: MaxLimit}, 20},
		{"cause", Query{Cause: "cause-3", Limit: MaxLimit}, 9},
		{"source", Query{Source: "api", Limit: MaxLimit}, 30},
		{"entity+source", Query{Entity: "svc-0", Source: "api", Limit: MaxLimit}, 6},
		{"after-seq", Query{AfterSeq: 50, Limit: MaxLimit}, 10},
		{"time-range", Query{
			Since: time.Date(2026, 1, 1, 0, 10, 0, 0, time.UTC),
			Until: time.Date(2026, 1, 1, 0, 19, 0, 0, time.UTC),
			Limit: MaxLimit,
		}, 10},
		{"none", Query{Entity: "absent", Limit: MaxLimit}, 0},
	}
	for _, tc := range cases {
		page, err := st.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(page.Records) != tc.want {
			t.Errorf("%s: %d records, want %d", tc.name, len(page.Records), tc.want)
		}
		if page.NextCursor != "" {
			t.Errorf("%s: unexpected next cursor on exhausted scan", tc.name)
		}
	}
}

func TestPaginationWalksEverything(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{NoSync: true})
	const n = 257
	for i := 0; i < n; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("pagination did not terminate")
		}
		q := Query{Limit: 10}
		if cursor != "" {
			after, err := ParseCursor(cursor)
			if err != nil {
				t.Fatalf("ParseCursor(%q): %v", cursor, err)
			}
			q.AfterSeq = after
		}
		page, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range page.Records {
			got = append(got, rec.Seq)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(got) != n {
		t.Fatalf("walked %d records, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("position %d: seq %d, want %d", i, seq, i+1)
		}
	}
}

func TestCursorRoundTripAndRejects(t *testing.T) {
	for _, seq := range []int64{0, 1, 42, 1 << 40} {
		got, err := ParseCursor(Cursor(seq))
		if err != nil || got != seq {
			t.Fatalf("round trip %d: got (%d, %v)", seq, got, err)
		}
	}
	for _, bad := range []string{"", "not-base64!", "djE6", "djI6NQ", Cursor(-1)} {
		if _, err := ParseCursor(bad); err == nil {
			t.Errorf("ParseCursor(%q): want error", bad)
		}
	}
}

// TestPaginate10kUnderConcurrentIngest is the acceptance drill: 10k+
// persisted reports paginate with stable cursors while appends continue.
// Every record that existed when the walk began must be seen exactly once, in
// order, regardless of interleaved ingest.
func TestPaginate10kUnderConcurrentIngest(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{NoSync: true})
	const preload = 10_000
	for i := 0; i < preload; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Append(testRecord(w*1000 + i)); err != nil {
					t.Errorf("concurrent append: %v", err)
					return
				}
			}
		}(w)
	}
	var seen []int64
	after := int64(0)
	for len(seen) < preload {
		page, err := st.Query(Query{AfterSeq: after, Limit: 500})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Records) == 0 {
			t.Fatalf("scan dried up at %d records", len(seen))
		}
		for _, rec := range page.Records {
			if rec.Seq <= after {
				t.Fatalf("cursor went backwards: seq %d after %d", rec.Seq, after)
			}
			after = rec.Seq
			seen = append(seen, rec.Seq)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < preload; i++ {
		if seen[i] != int64(i+1) {
			t.Fatalf("position %d: seq %d, want %d (lost or duplicated under ingest)", i, seen[i], i+1)
		}
	}
}

// TestCompactionConsistentUnderConcurrency hammers appends, queries, and the
// retention compactor together; run under -race in CI. Invariants: pages stay
// ascending and duplicate-free, and the retained suffix always ends at the
// newest acknowledged seq.
func TestCompactionConsistentUnderConcurrency(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{MaxRecords: 200, NoSync: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, err := st.Append(testRecord(w*2000 + i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			page, err := st.Query(Query{Limit: 50})
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			last := int64(0)
			for _, rec := range page.Records {
				if rec.Seq <= last {
					t.Errorf("page out of order: %d after %d", rec.Seq, last)
					return
				}
				last = rec.Seq
			}
		}
	}()
	wg.Wait() // appenders done; then release the queryer
	close(stop)
	qwg.Wait()
	if got, want := st.LastSeq(), int64(6000); got != want {
		t.Fatalf("LastSeq = %d, want %d", got, want)
	}
	if n := st.Len(); n > 250 {
		t.Fatalf("retention failed: %d records retained", n)
	}
	page, err := st.Query(Query{AfterSeq: 5900, Limit: MaxLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 100 || page.Records[99].Seq != 6000 {
		t.Fatalf("newest suffix wrong: %d records, last %d", len(page.Records), page.Records[len(page.Records)-1].Seq)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	payload := json.RawMessage(`{"seq":1,"source":"api","report":{"schema_version":1}}`)
	rec := testRecord(0)
	rec.Payload = payload
	if _, err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re := mustOpen(t, dir, Options{})
	page, err := re.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 1 {
		t.Fatalf("got %d records", len(page.Records))
	}
	if string(page.Records[0].Payload) != string(payload) {
		t.Fatalf("payload = %s, want %s", page.Records[0].Payload, payload)
	}
}

func TestClosedStoreRejects(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	st.Close()
	if _, err := st.Append(testRecord(0)); err != ErrClosed {
		t.Fatalf("Append after close: %v, want ErrClosed", err)
	}
	if _, err := st.Query(Query{}); err != ErrClosed {
		t.Fatalf("Query after close: %v, want ErrClosed", err)
	}
}
