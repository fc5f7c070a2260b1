package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"murphy"
	"murphy/internal/reportstore"
	"murphy/internal/telemetry"
)

// TestQueryHTTPContract pins the operator query surface's HTTP contract:
// method and parameter validation answer 400/405, unknown entities 404, and
// a daemon that is not ready sheds every query with 503 + Retry-After.
func TestQueryHTTPContract(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()
	ent := string(sc.Symptom.Entity)

	cases := []struct {
		name   string
		method string
		path   string
		want   int
	}{
		{"topology post", http.MethodPost, "/topology?entity=" + url.QueryEscape(ent), http.StatusMethodNotAllowed},
		{"topology no entity", http.MethodGet, "/topology", http.StatusBadRequest},
		{"topology bad depth", http.MethodGet, "/topology?entity=" + url.QueryEscape(ent) + "&depth=abc", http.StatusBadRequest},
		{"topology negative depth", http.MethodGet, "/topology?entity=" + url.QueryEscape(ent) + "&depth=-1", http.StatusBadRequest},
		{"topology unknown entity", http.MethodGet, "/topology?entity=ghost-entity", http.StatusNotFound},
		{"topology ok", http.MethodGet, "/topology?entity=" + url.QueryEscape(ent) + "&depth=1", http.StatusOK},
		{"perf post", http.MethodPost, "/entities/" + ent + "/performance", http.StatusMethodNotAllowed},
		{"perf no ref", http.MethodGet, "/entities/performance", http.StatusNotFound},
		{"perf wrong suffix", http.MethodGet, "/entities/" + ent + "/nonsense", http.StatusNotFound},
		{"perf unknown entity", http.MethodGet, "/entities/ghost-entity/performance", http.StatusNotFound},
		{"perf bad window", http.MethodGet, "/entities/" + ent + "/performance?window=abc", http.StatusBadRequest},
		{"perf zero window", http.MethodGet, "/entities/" + ent + "/performance?window=0", http.StatusBadRequest},
		{"perf ok", http.MethodGet, "/entities/" + ent + "/performance?window=32", http.StatusOK},
		{"reports post", http.MethodPost, "/reports", http.StatusMethodNotAllowed},
		{"reports since seq", http.MethodGet, "/reports?since=12", http.StatusOK},
		{"reports since rfc3339", http.MethodGet, "/reports?since=" + url.QueryEscape("2026-01-02T15:04:05Z"), http.StatusOK},
		{"reports since malformed", http.MethodGet, "/reports?since=yesterday-ish", http.StatusBadRequest},
		{"reports since negative", http.MethodGet, "/reports?since=-4", http.StatusBadRequest},
		{"reports until malformed", http.MethodGet, "/reports?until=not-a-time", http.StatusBadRequest},
		{"reports inverted range", http.MethodGet, "/reports?since=" + url.QueryEscape("2026-01-02T00:00:00Z") + "&until=" + url.QueryEscape("2026-01-01T00:00:00Z"), http.StatusBadRequest},
		{"reports zero limit", http.MethodGet, "/reports?limit=0", http.StatusBadRequest},
		{"reports oversized limit", http.MethodGet, fmt.Sprintf("/reports?limit=%d", reportstore.MaxLimit+1), http.StatusBadRequest},
		{"reports bad cursor", http.MethodGet, "/reports?cursor=%21%21not-base64%21%21", http.StatusBadRequest},
		{"reports ok", http.MethodGet, "/reports?entity=" + url.QueryEscape(ent) + "&limit=10", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var body string
			if tc.method == http.MethodGet {
				w := get(mux, tc.path)
				code, body = w.Code, w.Body.String()
			} else {
				w := post(t, mux, tc.path, struct{}{})
				code, body = w.Code, w.Body.String()
			}
			if code != tc.want {
				t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.path, code, tc.want, body)
			}
			if tc.want >= 400 {
				var e errorBody
				if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
					t.Fatalf("error response is not the JSON envelope: %s", body)
				}
			}
		})
	}

	// The mux's path cleaning redirects "//" before a handler runs; the
	// empty-ref guard still answers 400 when the raw path reaches it (as it
	// does behind proxies that skip cleaning).
	rw := httptest.NewRecorder()
	srv.handleEntityPerf(rw, httptest.NewRequest(http.MethodGet, "/entities//performance", nil))
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("empty ref = %d, want 400: %s", rw.Code, rw.Body.String())
	}

	// Oversized depth is a clamp, not an error: the response echoes the
	// effective depth.
	w := get(mux, "/topology?entity="+url.QueryEscape(ent)+"&depth=999")
	if w.Code != http.StatusOK {
		t.Fatalf("clamped depth = %d: %s", w.Code, w.Body.String())
	}
	var top murphy.Topology
	if err := json.Unmarshal(w.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if top.Depth != murphy.MaxTopologyDepth {
		t.Fatalf("depth 999 clamped to %d, want %d", top.Depth, murphy.MaxTopologyDepth)
	}
}

// TestQueryNotReadySheds503 pins the lifecycle contract: a daemon that is not
// ready (here: built but never started) sheds every read with 503 and a
// Retry-After hint rather than serving from a half-initialized state.
func TestQueryNotReadySheds503(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil) // no Start: StateStarting
	mux := srv.Mux()
	for _, path := range []string{
		"/topology?entity=" + url.QueryEscape(string(sc.Symptom.Entity)),
		"/entities/" + string(sc.Symptom.Entity) + "/performance",
		"/reports",
	} {
		w := get(mux, path)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s on a starting daemon = %d, want 503: %s", path, w.Code, w.Body.String())
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("GET %s: 503 without Retry-After", path)
		}
	}
}

// TestQueryResponsesDecodeStrictly pins the JSON schema round trip: every
// response decodes into its Go wire type with unknown fields disallowed, so
// the handlers never emit fields the published types do not carry.
func TestQueryResponsesDecodeStrictly(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()
	ent := string(sc.Symptom.Entity)

	if w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom}); w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
	}

	strict := func(t *testing.T, body []byte, v any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("strict decode into %T: %v\n%s", v, err, body)
		}
	}

	w := get(mux, "/topology?entity="+url.QueryEscape(ent)+"&depth=2")
	var top murphy.Topology
	strict(t, w.Body.Bytes(), &top)
	if top.Center != telemetry.EntityID(ent) || len(top.Nodes) == 0 {
		t.Fatalf("topology response incomplete: %+v", top)
	}

	w = get(mux, "/entities/"+ent+"/performance?window=40")
	var sum murphy.EntitySummary
	strict(t, w.Body.Bytes(), &sum)
	if sum.Entity != telemetry.EntityID(ent) || len(sum.Metrics) == 0 {
		t.Fatalf("summary response incomplete: %+v", sum)
	}

	w = get(mux, "/reports?limit=10")
	var page ReportPage
	strict(t, w.Body.Bytes(), &page)
	if page.Count != 1 || len(page.Reports) != 1 {
		t.Fatalf("report page = %+v, want the one diagnosis", page)
	}
	var rec ReportRecord
	if err := json.Unmarshal(page.Reports[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Symptom != sc.Symptom || rec.Report == nil {
		t.Fatalf("persisted payload incomplete: %+v", rec)
	}
}

// TestKill9LosesNoAcknowledgedReport is the serve-level durability drill: a
// report acknowledged to the client survives an abrupt daemon death (Close
// without drain — the segment was fsynced before the ack), and the restarted
// daemon serves it from the store and continues the sequence after it.
func TestKill9LosesNoAcknowledgedReport(t *testing.T) {
	sc := newTestScenario(t)
	dir := t.TempDir()
	srv := newTestServer(t, sc, func(c *Config) { c.ReportDir = dir })
	srv.Start()
	mux := srv.Mux()

	w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
	}
	var acked ReportRecord
	if err := json.Unmarshal(w.Body.Bytes(), &acked); err != nil {
		t.Fatal(err)
	}
	srv.Close() // kill -9: no drain, no final snapshot

	// Second life over the same report dir: the acknowledged report is
	// there, searchable, and new work continues the sequence after it.
	srv2 := newTestServer(t, sc, func(c *Config) { c.ReportDir = dir })
	srv2.Start()
	mux2 := srv2.Mux()

	w = get(mux2, "/reports?entity="+url.QueryEscape(string(sc.Symptom.Entity)))
	if w.Code != http.StatusOK {
		t.Fatalf("post-crash /reports = %d: %s", w.Code, w.Body.String())
	}
	recs := decodeReportPage(t, w.Body.Bytes())
	if len(recs) != 1 || recs[0].Seq != acked.Seq || recs[0].Symptom != sc.Symptom {
		t.Fatalf("acknowledged report lost across kill -9: got %+v, want seq %d", recs, acked.Seq)
	}

	w = post(t, mux2, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w.Code != http.StatusOK {
		t.Fatalf("post-crash diagnose = %d: %s", w.Code, w.Body.String())
	}
	var rec2 ReportRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}
	if rec2.Seq != acked.Seq+1 {
		t.Fatalf("post-crash seq = %d, want %d (continue, never reuse)", rec2.Seq, acked.Seq+1)
	}
	if got := decodeReportPage(t, get(mux2, "/reports").Body.Bytes()); len(got) != 2 {
		t.Fatalf("store holds %d reports after the second diagnosis, want 2", len(got))
	}
}

// TestReportsPaginatesPersistedStore walks a preloaded store through the HTTP
// surface with small pages and stable cursors: every record is seen exactly
// once, in seq order, and filters compose with pagination.
func TestReportsPaginatesPersistedStore(t *testing.T) {
	sc := newTestScenario(t)
	dir := t.TempDir()

	// Preload the store the daemon will adopt.
	st, err := reportstore.Open(dir, reportstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 57
	for i := 1; i <= n; i++ {
		rec := &reportstore.Record{
			At:      time.Unix(int64(1700000000+i), 0).UTC(),
			Entity:  fmt.Sprintf("svc-%d", i%3),
			App:     "shop",
			Payload: json.RawMessage(fmt.Sprintf(`{"seq":%d}`, i)),
		}
		if _, err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, sc, func(c *Config) { c.ReportDir = dir })
	srv.Start()
	mux := srv.Mux()

	var seen []int64
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("cursor walk did not terminate")
		}
		path := "/reports?limit=10"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		w := get(mux, path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
		}
		var page ReportPage
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		for _, raw := range page.Reports {
			var p struct {
				Seq int64 `json:"seq"`
			}
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			seen = append(seen, p.Seq)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != n {
		t.Fatalf("cursor walk saw %d records, want %d", len(seen), n)
	}
	for i, seq := range seen {
		if seq != int64(i+1) {
			t.Fatalf("walk out of order at %d: seq %d", i, seq)
		}
	}

	// A filter composes with pagination: svc-1 owns every third record.
	w := get(mux, "/reports?entity=svc-1&limit=1000")
	filtered := decodeRawPage(t, w.Body.Bytes())
	if len(filtered) != n/3 {
		t.Fatalf("entity filter matched %d, want %d", len(filtered), n/3)
	}

	// since=<n> keeps the records after seq n; with a cursor as well, the
	// larger of the two bounds wins.
	for _, tc := range []struct {
		path      string
		wantFirst int64
	}{
		{"/reports?since=50", 51},
		{"/reports?since=50&cursor=" + url.QueryEscape(reportstore.Cursor(54)), 55},
		{"/reports?since=54&cursor=" + url.QueryEscape(reportstore.Cursor(50)), 55},
	} {
		w := get(mux, tc.path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", tc.path, w.Code, w.Body.String())
		}
		var got []int64
		for _, raw := range decodeRawPage(t, w.Body.Bytes()) {
			var p struct {
				Seq int64 `json:"seq"`
			}
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			got = append(got, p.Seq)
		}
		if want := int(n - tc.wantFirst + 1); len(got) != want || got[0] != tc.wantFirst || got[len(got)-1] != n {
			t.Fatalf("GET %s returned seqs %v, want %d..%d", tc.path, got, tc.wantFirst, n)
		}
	}
}

// TestReportsServeStoredBytes pins the /reports splice over a store of real
// diagnosis records and one bare record without a payload. For several
// limit, cursor, entity and since queries, the body is byte for byte the
// compact encoding of the page the store's records make; each served record
// is the stored payload itself, the bare one json.Marshal of its record;
// and the body decodes strictly into that page.
func TestReportsServeStoredBytes(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()
	diagnose := func() {
		t.Helper()
		if w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom}); w.Code != http.StatusOK {
			t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
		}
	}
	diagnose()
	diagnose()
	bare := &reportstore.Record{At: time.Now().UTC(), Entity: "bare/vm", App: "imported", Causes: []string{"<a&b>"}}
	if _, err := srv.store.Append(bare); err != nil {
		t.Fatal(err)
	}
	diagnose()
	bareJSON, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}

	ent := url.QueryEscape(string(sc.Symptom.Entity))
	for _, path := range []string{
		"/reports",
		"/reports?limit=1",
		"/reports?limit=2&cursor=" + reportstore.Cursor(2),
		"/reports?entity=" + ent,
		"/reports?entity=" + ent + "&limit=1&cursor=" + reportstore.Cursor(1),
		"/reports?entity=bare/vm",
		"/reports?since=2",
		"/reports?since=4",
		"/reports?entity=nobody",
	} {
		w := get(mux, path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
		}
		u, err := url.Parse(path)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parseReportQuery(u.Query())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := srv.store.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := ReportPage{NextCursor: sp.NextCursor}
		for _, rec := range sp.Records {
			switch {
			case rec == bare:
				want.Reports = append(want.Reports, bareJSON)
			case len(rec.Payload) == 0:
				t.Fatalf("record %d has no payload", rec.Seq)
			default:
				want.Reports = append(want.Reports, rec.Payload)
			}
		}
		want.Count = len(want.Reports)
		wantBody, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Body.String(); got != string(wantBody)+"\n" {
			t.Fatalf("GET %s:\n got %s\nwant %s", path, got, wantBody)
		}
		var page ReportPage
		decodeStrict(t, w.Body.Bytes(), &page)
		if !reflect.DeepEqual(page, want) {
			t.Fatalf("GET %s decodes to %+v, want %+v", path, page, want)
		}
		if want.Count == 0 && w.Body.String() != `{"reports":null,"count":0}`+"\n" {
			t.Fatalf("GET %s: empty page reads %s", path, w.Body.String())
		}
	}
}

// TestDiagnoseAckIsStoredPayload: a /diagnose 200 body is the persisted
// payload plus a newline, and /reports serves that payload as the record of
// the acknowledged seq.
func TestDiagnoseAckIsStoredPayload(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, nil)
	srv.Start()
	mux := srv.Mux()
	w := post(t, mux, "/diagnose", DiagnoseRequest{Symptom: sc.Symptom})
	if w.Code != http.StatusOK {
		t.Fatalf("diagnose = %d: %s", w.Code, w.Body.String())
	}
	var ack ReportRecord
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	sp, err := srv.store.Query(reportstore.Query{AfterSeq: int64(ack.Seq - 1), Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Records) != 1 || sp.Records[0].Seq != int64(ack.Seq) {
		t.Fatalf("store has no record of acknowledged seq %d", ack.Seq)
	}
	if got, want := w.Body.String(), string(sp.Records[0].Payload)+"\n"; got != want {
		t.Fatalf("ack is not the stored payload:\n ack %s\n payload %s", got, want)
	}
	page := decodeRawPage(t, get(mux, fmt.Sprintf("/reports?since=%d&limit=1", ack.Seq-1)).Body.Bytes())
	if len(page) != 1 || string(page[0])+"\n" != w.Body.String() {
		t.Fatalf("/reports record of seq %d is not the ack:\n%s", ack.Seq, page)
	}
}

// TestReportsDecodeDuringCompaction: pages served while concurrent appends
// drive the store through retention compactions still decode strictly,
// count their records, and list seqs in ascending order.
func TestReportsDecodeDuringCompaction(t *testing.T) {
	sc := newTestScenario(t)
	srv := newTestServer(t, sc, func(c *Config) { c.ReportRetention = 8 })
	srv.Start()
	mux := srv.Mux()
	done := make(chan struct{})
	var appendErr error
	go func() {
		defer close(done)
		for i := 1; i <= 60 && appendErr == nil; i++ {
			rec := &reportstore.Record{At: time.Now().UTC(), Entity: "svc", Payload: json.RawMessage(fmt.Sprintf(`{"seq":%d}`, i))}
			_, appendErr = srv.store.Append(rec)
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		w := get(mux, "/reports?limit=5")
		if w.Code != http.StatusOK {
			t.Fatalf("/reports = %d: %s", w.Code, w.Body.String())
		}
		var page ReportPage
		decodeStrict(t, w.Body.Bytes(), &page)
		if page.Count != len(page.Reports) {
			t.Fatalf("page count %d but %d reports", page.Count, len(page.Reports))
		}
		last := 0
		for _, raw := range page.Reports {
			var p struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			if p.Seq <= last {
				t.Fatalf("seq %d after %d", p.Seq, last)
			}
			last = p.Seq
		}
	}
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if st := srv.store.Stats(); st.Compactions == 0 {
		t.Fatalf("no retention compaction ran: %+v", st)
	}
}

// decodeStrict decodes body into v, rejecting unknown fields and trailing
// data.
func decodeStrict(t *testing.T, body []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode into %T: %v\n%s", v, err, body)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("trailing data after %T: %s", v, body)
	}
}

// decodeRawPage unwraps a report page without decoding payloads.
func decodeRawPage(t *testing.T, body []byte) []json.RawMessage {
	t.Helper()
	var page ReportPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("decode page: %v\n%s", err, body)
	}
	return page.Reports
}

// TestQueryGoldenResponses locks the /topology and /entities/.../performance
// wire format against golden files on the microsim fixture, and pins the
// restart contract: a daemon recovered from the same snapshot serves
// byte-identical responses. Regenerate with UPDATE_GOLDEN=1.
func TestQueryGoldenResponses(t *testing.T) {
	sc := newTestScenario(t)
	state := filepath.Join(t.TempDir(), "state.json")
	srv := newTestServer(t, sc, func(c *Config) { c.SnapshotPath = state })
	srv.Start()
	mux := srv.Mux()
	ent := string(sc.Symptom.Entity)

	paths := map[string]string{
		"topology.golden":    "/topology?entity=" + url.QueryEscape(ent) + "&depth=2",
		"performance.golden": "/entities/" + ent + "/performance?window=48",
	}
	got := map[string][]byte{}
	for name, path := range paths {
		w := get(mux, path)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
		}
		got[name] = w.Body.Bytes()
	}

	// Restart byte-identity: recover a second daemon from the snapshot and
	// re-issue the same queries.
	if err := srv.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	db2, restore, err := RecoverFromDisk(state)
	if err != nil || db2 == nil {
		t.Fatalf("recover: %v (db=%v)", err, db2 != nil)
	}
	mcfg := murphy.DefaultConfig()
	mcfg.Samples = 150
	mcfg.TrainWindow = 80
	srv2, err := New(db2, Config{QueueCap: 4, Workers: 1, ReportDir: t.TempDir()}, murphy.WithConfig(mcfg), murphy.WithSeeds(sc.Symptom.Entity))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	restore(srv2)
	srv2.Start()
	mux2 := srv2.Mux()
	for name, path := range paths {
		w := get(mux2, path)
		if w.Code != http.StatusOK {
			t.Fatalf("post-restart GET %s = %d: %s", path, w.Code, w.Body.String())
		}
		if string(w.Body.Bytes()) != string(got[name]) {
			t.Fatalf("%s drifted across a snapshot restart:\n--- first ---\n%s--- second ---\n%s", path, got[name], w.Body.Bytes())
		}
	}

	for name, body := range got {
		goldenPath := filepath.Join("testdata", name)
		if os.Getenv("UPDATE_GOLDEN") == "1" {
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, body, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", goldenPath)
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
		}
		if string(body) != string(want) {
			t.Fatalf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, body, want)
		}
	}
}

// FuzzReportQuery drives the /reports query-string parser with arbitrary
// input: it must never panic, and whatever it accepts must be internally
// consistent (limits in range, cursors round-trippable, time ranges ordered).
func FuzzReportQuery(f *testing.F) {
	seeds := []string{
		"",
		"entity=web&app=shop&limit=10",
		"since=42",
		"since=2026-01-02T15:04:05Z&until=2026-01-03T00:00:00Z",
		"since=yesterday",
		"limit=1001",
		"cursor=djE6MTIzNA",
		"cursor=%%%",
		"entity=a/b%2Fc&cause=disk&source=detector",
		"since=-1&until=not-a-time",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return // not a query string; the router would never deliver it
		}
		q, err := parseReportQuery(vals)
		if err != nil {
			return // rejected input answers 400; nothing else to hold
		}
		if q.Limit < 0 || q.Limit > reportstore.MaxLimit {
			t.Fatalf("accepted limit %d out of range", q.Limit)
		}
		if q.AfterSeq < 0 {
			t.Fatalf("accepted negative seq bound: after=%d", q.AfterSeq)
		}
		if !q.Since.IsZero() && !q.Until.IsZero() && q.Until.Before(q.Since) {
			t.Fatalf("accepted inverted time range %v..%v", q.Since, q.Until)
		}
		if v := vals.Get("cursor"); v != "" {
			// An accepted cursor re-encodes to the same sequence position.
			if reportstore.Cursor(q.AfterSeq) == "" {
				t.Fatal("accepted cursor lost its position")
			}
		}
	})
}
