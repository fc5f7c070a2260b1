package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"murphy"
	"murphy/internal/reportstore"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

// operatorReadsWorkload is operators querying murphyd while it keeps
// ingesting and diagnosing: one connection runs a seeded closed-loop
// sequence of report searches (following cursors), per-entity performance
// summaries and topology views over a store preloaded with a few thousand
// reports; the other sends writes on a fixed open-loop schedule.
var operatorReadsWorkload = &workload{
	name:    "operator-reads",
	primary: "read",
	tails:   map[string]float64{"read": 99, "ingest": 75, "diagnose": 75},
	loops: map[string]string{
		"read":     "closed loop, 1 connection",
		"ingest":   "open loop, 1 slice per 10 s interval at 50x (200 ms), 2nd connection, timed from due time",
		"diagnose": "open loop, each symptom once per 30 s detector cooldown at 50x, 2nd connection, timed from due time",
	},
	run: runOperatorReads,
}

// readsSize sizes the script. The read side's sizes are assumptions, not
// measurements of operator traffic (README.md lists them).
type readsSize struct {
	// records is the preloaded report count; reads the read ops per pass.
	records, reads int
	// past is how many earlier incidents the preloaded reports come from.
	past     int
	symptoms int
	samples  int
	// compression is how many times faster than real time the writer
	// streams the incident's slices. At 50 a 20 s run streams 100 slices,
	// enough for an ingest tail; in real time it would stream two.
	compression int
}

func readsSizeFor(tiny bool) readsSize {
	if tiny {
		return readsSize{records: 400, reads: 30, past: 1, symptoms: 2, samples: 200, compression: 500}
	}
	return readsSize{records: 3000, reads: 1200, past: 6, symptoms: 3, samples: 1000, compression: 50}
}

// detectCooldown is the daemon's default detector cooldown
// (serve.Config.DetectCooldown): its detector re-diagnoses a symptom that
// persists at most once per 30 s.
const detectCooldown = 30 * time.Second

// writeSchedule is the open-loop writer's timetable: slice i is due at
// i×period, and every diagnoseEvery-th slice is followed, a tenth of a
// period later, by a diagnosis of the next symptom in turn.
type writeSchedule struct {
	period        time.Duration
	diagnoseEvery int
}

// scheduleFor derives the writer's timetable from the data. Slices arrive
// once per slice interval of the snapshot (10 s), compressed by sz.compression.
// The scripted diagnoses stand in for the detector, which the daemon runs
// with -detect-every 0: at its defaults it re-diagnoses each of the
// incident's persisting symptoms once per cooldown, so the writer diagnoses
// the symptoms in turn at that rate, one every cooldown/symptoms, rounded to
// whole slices.
func scheduleFor(sz readsSize, intervalSeconds, symptoms int) writeSchedule {
	interval := time.Duration(intervalSeconds) * time.Second
	every := int(math.Round(float64(detectCooldown) / float64(symptoms) / float64(interval)))
	return writeSchedule{period: interval / time.Duration(sz.compression), diagnoseEvery: max(every, 1)}
}

// readsTailLen bounds the streamed slices; the writer cycles through them.
const readsTailLen = 64

// storeBase is the completion time of the first preloaded report; the
// preloaded reports complete one second apart.
var storeBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// indexed is the searchable view of one preloaded report.
type indexed struct {
	seq    int64
	at     time.Time
	source string
	entity telemetry.EntityID
	causes map[telemetry.EntityID]bool
}

// preloaded is the report store the daemon boots over.
type preloaded struct {
	dir     string
	records []indexed
	// entities and causes are what the read script searches for.
	entities []telemetry.EntityID
	causes   []telemetry.EntityID
	bytes    int64
}

// buildStore diagnoses each symptom of some past incidents of the same
// topology once in process and writes records of those real reports into a
// report store through reportstore.Open/Append, one second apart, a quarter
// of them from the detector. Several incidents' reports, rather than one's,
// keep the store's payload sizes from depending on which service the seed
// happens to fault.
func buildStore(past []*incident, sz readsSize, dir string) (*preloaded, error) {
	var db *telemetry.DB
	var reports []*murphy.Report
	pl := &preloaded{dir: dir}
	seen := map[telemetry.EntityID]bool{}
	for _, inc := range past {
		var err error
		if db, err = inc.loadSnapshot(); err != nil {
			return nil, err
		}
		sys, err := murphy.New(db, murphy.WithConfig(daemonConfig(sz.samples)))
		if err != nil {
			return nil, err
		}
		for _, sym := range inc.symptoms {
			rep, err := sys.Diagnose(sym)
			if err != nil {
				return nil, fmt.Errorf("diagnose %s for the preloaded store: %w", sym, err)
			}
			reports = append(reports, rep)
			if !seen[sym.Entity] {
				seen[sym.Entity] = true
				pl.entities = append(pl.entities, sym.Entity)
			}
			for _, c := range certified(rep) {
				if !seen[c.entity] {
					seen[c.entity] = true
					pl.causes = append(pl.causes, c.entity)
				}
			}
		}
	}
	if len(pl.causes) == 0 {
		pl.causes = pl.entities
	}
	store, err := reportstore.Open(dir, reportstore.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	for i := 1; i <= sz.records; i++ {
		rep := reports[i%len(reports)]
		rec := &serve.ReportRecord{
			Seq: i, Source: "api", Symptom: rep.Symptom, Report: rep,
			QueuedMs: 0.02, WallMs: 100, CompletedAt: storeBase.Add(time.Duration(i) * time.Second),
		}
		if i%4 == 0 {
			rec.Source = "detector"
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		if _, err := store.Append(storeRecord(db, rec, payload)); err != nil {
			return nil, err
		}
		ix := indexed{seq: int64(i), at: rec.CompletedAt, source: rec.Source, entity: rep.Symptom.Entity, causes: map[telemetry.EntityID]bool{}}
		for _, c := range certified(rep) {
			ix.causes[c.entity] = true
		}
		pl.records = append(pl.records, ix)
	}
	pl.bytes = store.Stats().SegmentBytes
	return pl, store.Close()
}

// copyTo copies the preloaded store's files into dir.
func (pl *preloaded) copyTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(pl.dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if err := copyFile(filepath.Join(pl.dir, ent.Name()), filepath.Join(dir, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// reportFilter is one report search, starting after seq start.
type reportFilter struct {
	entity, app, cause, source string
	since, until               time.Time
	limit                      int
	start                      int64
}

func (f reportFilter) path(cursor string) string {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("entity", f.entity)
	set("app", f.app)
	set("cause", f.cause)
	set("source", f.source)
	if !f.since.IsZero() {
		v.Set("since", f.since.Format(time.RFC3339))
		v.Set("until", f.until.Format(time.RFC3339))
	}
	v.Set("limit", strconv.Itoa(f.limit))
	if cursor == "" && f.start > 0 {
		cursor = reportstore.Cursor(f.start)
	}
	set("cursor", cursor)
	return "/reports?" + v.Encode()
}

func (f reportFilter) storeQuery(after int64) reportstore.Query {
	return reportstore.Query{
		Entity: f.entity, App: f.app, Cause: f.cause, Source: f.source,
		Since: f.since, Until: f.until, AfterSeq: after, Limit: f.limit,
	}
}

// matches checks a served record against the filter.
func (f reportFilter) matches(rec *serve.ReportRecord, app string) bool {
	if f.entity != "" && string(rec.Symptom.Entity) != f.entity ||
		f.app != "" && app != f.app ||
		f.source != "" && rec.Source != f.source ||
		!f.since.IsZero() && (rec.CompletedAt.Before(f.since) || rec.CompletedAt.After(f.until)) {
		return false
	}
	if f.cause != "" {
		for _, c := range certified(rec.Report) {
			if string(c.entity) == f.cause {
				return true
			}
		}
		return false
	}
	return true
}

// matchesIndexed checks a preloaded record against the filter.
func (f reportFilter) matchesIndexed(ix indexed, app string) bool {
	return (f.entity == "" || string(ix.entity) == f.entity) &&
		(f.app == "" || app == f.app) &&
		(f.source == "" || ix.source == f.source) &&
		(f.since.IsZero() || !ix.at.Before(f.since) && !ix.at.After(f.until)) &&
		(f.cause == "" || ix.causes[telemetry.EntityID(f.cause)])
}

// readOp is one scripted read: a report search walked for up to pages
// pages, a performance summary, or a topology view.
type readOp struct {
	kind   string
	filter reportFilter
	pages  int
	entity telemetry.EntityID
	n      int // window (performance) or depth (topology)
}

// readScript draws the seeded read sequence: half report-search walks of two
// 10-record pages, cycling through the five filter kinds, a quarter
// performance summaries and a quarter topology views, shuffled. Fixed
// proportions keep the latency mix the same on every seed; the seed picks
// the entities, causes, windows, depths and the order.
func readScript(rng *rand.Rand, n int, pl *preloaded, app string, all []telemetry.EntityID) []readOp {
	ops := make([]readOp, 0, n)
	walks := 0
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1:
			f := reportFilter{limit: 10}
			switch walks % 5 {
			case 0:
				f.entity = string(pl.entities[rng.Intn(len(pl.entities))])
			case 1:
				f.app = app
			case 2:
				f.cause = string(pl.causes[rng.Intn(len(pl.causes))])
			case 3:
				f.source = "detector"
			default:
				from := rng.Intn(len(pl.records) - 300)
				f.since = storeBase.Add(time.Duration(from) * time.Second)
				f.until = f.since.Add(300 * time.Second)
			}
			if f.since.IsZero() {
				// Resume from a bookmarked position, as an operator paging
				// through history does.
				f.start = int64(rng.Intn(len(pl.records) * 2 / 3))
			}
			walks++
			ops = append(ops, readOp{kind: "reports", filter: f, pages: 2})
		case 2:
			ops = append(ops, readOp{kind: "performance", entity: all[rng.Intn(len(all))], n: []int{30, 60, 300}[rng.Intn(3)]})
		default:
			ops = append(ops, readOp{kind: "topology", entity: all[rng.Intn(len(all))], n: 1 + rng.Intn(3)})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// readsRun is the shared state of the workload's passes.
type readsRun struct {
	e      *env
	sz     readsSize
	inc    *incident
	pl     *preloaded
	script []readOp
	sched  writeSchedule
	appOf  map[telemetry.EntityID]string
	out    *outcome
	ss     serveStats
	// writes is the first pass's write sequence, for the traced replay.
	writes []writeEvent
	// decoded memoizes report bodies already decoded by verify; verified
	// holds the answers that passed it.
	decoded  map[string]*murphy.Report
	verified map[answerKey]bool
}

// answerKey identifies one verified answer: the script op and the SHA-256
// of its bodies.
type answerKey struct {
	op  int
	sum [sha256.Size]byte
}

func runOperatorReads(e *env) (*outcome, error) {
	sz := readsSizeFor(e.opts.tiny)
	inc, err := socialIncident(e.opts.seed*1000, sz.symptoms, readsTailLen, filepath.Join(e.dir, "incident.json"))
	if err != nil {
		return nil, err
	}
	// The preloaded history is a fixture of the workload, the same on every
	// seed, so the size of the report payloads the reads move does not
	// depend on the seed; the seed picks the live incident and the reads.
	past := make([]*incident, sz.past)
	for i := range past {
		path := filepath.Join(e.dir, fmt.Sprintf("past%d.json", i))
		if past[i], err = socialIncident(int64(1+i), sz.symptoms, 1, path); err != nil {
			return nil, err
		}
	}
	pl, err := buildStore(past, sz, filepath.Join(e.dir, "preloaded"))
	if err != nil {
		return nil, err
	}
	e.logf("preloaded %d reports, %d segment bytes", len(pl.records), pl.bytes)
	db, err := inc.loadSnapshot()
	if err != nil {
		return nil, err
	}
	rr := &readsRun{
		e: e, sz: sz, inc: inc, pl: pl, out: newOutcome(),
		appOf: map[telemetry.EntityID]string{}, decoded: map[string]*murphy.Report{},
		verified: map[answerKey]bool{},
	}
	for _, id := range db.Entities() {
		rr.appOf[id] = db.Entity(id).App
	}
	rng := rand.New(rand.NewSource(e.opts.seed))
	rr.script = readScript(rng, sz.reads, pl, inc.app, db.Entities())
	rr.sched = scheduleFor(sz, db.IntervalSeconds, len(inc.symptoms))
	e.logf("writer: a slice every %v, a diagnosis after every %d slices", rr.sched.period, rr.sched.diagnoseEvery)

	out := rr.out
	var rss []float64
	for pass := 0; pass == 0 || out.timed < e.opts.budget(); pass++ {
		peak, err := rr.pass(pass, true)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		out.passes++
	}
	for pass := out.passes; len(out.setups) < 3; pass++ {
		if _, err := rr.pass(pass, false); err != nil {
			return nil, err
		}
	}
	out.rssMB = percentile(rss, 50)
	if e.opts.trace {
		rr.ss.layerMetrics(out)
		return out, rr.replay()
	}
	return out, nil
}

// writeEvent is one scheduled write of the open-loop writer.
type writeEvent struct {
	diagnose bool
	index    int // slice number or symptom index
}

// pass boots murphyd over a fresh copy of the preloaded store, warms it up
// with one op of each kind (the set-up time), and, when timed, runs the read
// script against the open-loop writer until the script ends or the budget
// is spent.
func (rr *readsRun) pass(pass int, timed bool) (float64, error) {
	e, out := rr.e, rr.out
	dir := filepath.Join(e.dir, fmt.Sprintf("pass%d", pass))
	defer os.RemoveAll(dir)
	if err := rr.pl.copyTo(filepath.Join(dir, "reports")); err != nil {
		return 0, err
	}
	start := time.Now()
	d, err := startDaemon(e.opts.murphyd, daemonArgs(rr.inc.snapshot, filepath.Join(dir, "reports"), rr.sz.samples), filepath.Join(dir, "murphyd.log"))
	if err != nil {
		return 0, err
	}
	reader, writer := newConn(d.base), newConn(d.base)
	defer reader.close()
	defer writer.close()
	warm := func() error {
		for _, op := range []readOp{
			{kind: "reports", filter: reportFilter{app: rr.inc.app, limit: 10}, pages: 1},
			{kind: "performance", entity: rr.inc.symptoms[0].Entity, n: 60},
			{kind: "topology", entity: rr.inc.symptoms[0].Entity, n: 2},
		} {
			bodies, err := rr.fetch(reader, op, nil)
			if err == nil {
				err = rr.verify(op, bodies)
			}
			if err != nil {
				return err
			}
		}
		if _, err := postIngest(writer, rr.inc.tail[0]); err != nil {
			return err
		}
		_, _, err := postDiagnose(writer, rr.inc.symptoms[0])
		return err
	}
	if err := warm(); err != nil {
		d.stop()
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	out.setups = append(out.setups, time.Since(start).Seconds())
	if timed {
		rr.timedPhase(pass, reader, writer)
	}
	peak, err := d.peakRSSMB()
	if err != nil {
		d.stop()
		return 0, err
	}
	if err := d.stop(); err != nil {
		return 0, fmt.Errorf("stop murphyd: %w", err)
	}
	return peak, nil
}

// writerResult is what the open-loop writer measured.
type writerResult struct {
	ingest, diagnose, late []float64
	recs                   []*serve.ReportRecord
	diagMs                 []float64
	events                 []writeEvent
	attempted              int
	failures               []string
	shed                   int
}

// timedPhase runs the reader on this goroutine and the writer on another.
func (rr *readsRun) timedPhase(pass int, reader, writer *conn) {
	out := rr.out
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var wr writerResult
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr.write(writer, start, stop, &wr)
	}()
	// Answers are checked after the timed phase, so client-side decoding
	// does not throttle the closed loop.
	answers := make([][][]byte, 0, len(rr.script))
	var reads int
	for _, op := range rr.script {
		if pass > 0 && out.timed+time.Since(start) >= rr.e.opts.budget() {
			break
		}
		bodies, err := rr.fetch(reader, op, out)
		reads += len(bodies)
		answers = append(answers, bodies)
		if err != nil {
			out.fail(fmt.Sprintf("pass %d %s read: %v", pass, op.kind, err))
		}
	}
	close(stop)
	wg.Wait()
	out.timed += time.Since(start)
	for i, bodies := range answers {
		if len(bodies) == 0 {
			continue
		}
		// Passes repeat the script, and most answers repeat byte for byte:
		// an answer already verified for the same op is not decoded again.
		h := sha256.New()
		for _, b := range bodies {
			h.Write(b)
		}
		key := answerKey{op: i}
		h.Sum(key.sum[:0])
		if rr.verified[key] {
			continue
		}
		if err := rr.verify(rr.script[i], bodies); err != nil {
			out.fail(fmt.Sprintf("pass %d %s read: %v", pass, rr.script[i].kind, err))
			continue
		}
		rr.verified[key] = true
	}
	out.ops += reads + len(wr.ingest) + len(wr.diagnose)
	out.attempted += wr.attempted
	for _, f := range wr.failures {
		out.fail(f)
	}
	rr.ss.shed += wr.shed
	out.lat["ingest"] = append(out.lat["ingest"], wr.ingest...)
	out.lat["diagnose"] = append(out.lat["diagnose"], wr.diagnose...)
	out.late = append(out.late, wr.late...)
	for i, rec := range wr.recs {
		rr.ss.add(rec, wr.diagMs[i])
	}
	if pass == 0 {
		rr.writes = wr.events
	}
}

// write is the open-loop writer on rr.sched. A diagnosis is due a tenth of
// a period after its slice, which leaves it most of a period to finish
// before the next slice is due. Latency counts from the due time, so a stall
// shows up in every write it delays.
func (rr *readsRun) write(c *conn, start time.Time, stop <-chan struct{}, wr *writerResult) {
	period, every := rr.sched.period, rr.sched.diagnoseEvery
	for i := 0; ; i++ {
		events := []writeEvent{{index: 1 + i%(len(rr.inc.tail)-1)}}
		if (i+1)%every == 0 {
			events = append(events, writeEvent{diagnose: true, index: (i / every) % len(rr.inc.symptoms)})
		}
		for j, ev := range events {
			due := start.Add(time.Duration(i)*period + time.Duration(j)*period/10)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			wr.late = append(wr.late, ms(time.Since(due)))
			wr.attempted++
			wr.events = append(wr.events, ev)
			var err error
			if ev.diagnose {
				var rec *serve.ReportRecord
				var el time.Duration
				rec, el, err = postDiagnose(c, rr.inc.symptoms[ev.index])
				if err == nil {
					wr.diagnose = append(wr.diagnose, ms(time.Since(due)))
					wr.recs = append(wr.recs, rec)
					wr.diagMs = append(wr.diagMs, ms(el))
				}
			} else {
				_, err = postIngest(c, rr.inc.tail[ev.index])
				if err == nil {
					wr.ingest = append(wr.ingest, ms(time.Since(due)))
				}
			}
			if err != nil {
				if isShed(err) {
					wr.shed++
				}
				wr.failures = append(wr.failures, fmt.Sprintf("write %d: %v", i, err))
			}
		}
	}
}

// fetch runs one scripted read op and returns the answer bodies; a report
// search is one request per page, following the cursor. When out is non-nil
// each request counts as an attempted op with its latency recorded.
func (rr *readsRun) fetch(c *conn, op readOp, out *outcome) ([][]byte, error) {
	var bodies [][]byte
	get := func(path string) error {
		if out != nil {
			out.attempted++
		}
		resp, err := c.do(http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			if shed(resp.status) {
				rr.ss.shed++
			}
			return &statusError{resp.status, string(resp.body)}
		}
		if out != nil {
			out.record("read", resp.elapsed)
			out.record("read."+op.kind, resp.elapsed)
		}
		bodies = append(bodies, resp.body)
		return nil
	}
	switch op.kind {
	case "performance":
		return bodies, get("/entities/" + string(op.entity) + "/performance?window=" + strconv.Itoa(op.n))
	case "topology":
		return bodies, get("/topology?" + url.Values{"entity": {string(op.entity)}, "depth": {strconv.Itoa(op.n)}}.Encode())
	}
	cursor := ""
	for page := 0; page < op.pages; page++ {
		if err := get(op.filter.path(cursor)); err != nil {
			return bodies, err
		}
		var pg struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(bodies[len(bodies)-1], &pg); err != nil {
			return bodies, fmt.Errorf("decode report page: %w", err)
		}
		if cursor = pg.NextCursor; cursor == "" {
			break
		}
	}
	return bodies, nil
}

// decodeRecord strictly decodes one served report record. Records repeat
// a few distinct report bodies, so each distinct body is decoded once.
func (rr *readsRun) decodeRecord(raw []byte) (*serve.ReportRecord, error) {
	var rec struct {
		serve.ReportRecord
		Report json.RawMessage `json:"report"`
	}
	if err := decodeStrict(raw, &rec); err != nil {
		return nil, fmt.Errorf("decode report record: %w", err)
	}
	rep, ok := rr.decoded[string(rec.Report)]
	if !ok {
		rep = new(murphy.Report)
		if err := decodeStrict(rec.Report, rep); err != nil {
			return nil, fmt.Errorf("decode report: %w", err)
		}
		rr.decoded[string(rec.Report)] = rep
	}
	rec.ReportRecord.Report = rep
	return &rec.ReportRecord, nil
}

// verify checks the answers of one read op: every body decodes strictly,
// every report page satisfies its filter, and the cursor walk neither
// repeats nor skips a seq.
func (rr *readsRun) verify(op readOp, bodies [][]byte) error {
	switch op.kind {
	case "performance":
		var sum murphy.EntitySummary
		if err := decodeStrict(bodies[0], &sum); err != nil {
			return fmt.Errorf("decode performance: %w", err)
		}
		if sum.Entity != op.entity || len(sum.Metrics) == 0 {
			return fmt.Errorf("performance of %s: got entity %s with %d metrics", op.entity, sum.Entity, len(sum.Metrics))
		}
		return nil
	case "topology":
		var top murphy.Topology
		if err := decodeStrict(bodies[0], &top); err != nil {
			return fmt.Errorf("decode topology: %w", err)
		}
		if top.Center != op.entity || len(top.Nodes) == 0 || top.Nodes[0].Ref != op.entity || top.Nodes[0].Hops != 0 {
			return fmt.Errorf("topology of %s: bad center or nodes", op.entity)
		}
		return nil
	}
	f := op.filter
	var last int64
	seen := map[int64]bool{}
	for i, body := range bodies {
		var pg serve.ReportPage
		if err := decodeStrict(body, &pg); err != nil {
			return fmt.Errorf("decode report page: %w", err)
		}
		if pg.Count != len(pg.Reports) {
			return fmt.Errorf("page count %d but %d reports", pg.Count, len(pg.Reports))
		}
		for _, raw := range pg.Reports {
			rec, err := rr.decodeRecord(raw)
			if err != nil {
				return err
			}
			if int64(rec.Seq) <= last {
				return fmt.Errorf("cursor walk repeated or reordered seq %d after %d", rec.Seq, last)
			}
			last = int64(rec.Seq)
			seen[last] = true
			if !f.matches(rec, rr.appOf[rec.Symptom.Entity]) {
				return fmt.Errorf("record %d does not satisfy filter %+v", rec.Seq, f)
			}
		}
		if i == len(bodies)-1 && pg.NextCursor == "" {
			last = 1 << 62 // the walk is exhausted: every match must have been seen
		}
	}
	for _, ix := range rr.pl.records {
		if ix.seq > last {
			break
		}
		if ix.seq > f.start && f.matchesIndexed(ix, rr.appOf[ix.entity]) && !seen[ix.seq] {
			return fmt.Errorf("cursor walk skipped seq %d of filter %+v", ix.seq, f)
		}
	}
	return nil
}

// replay runs the first pass's script in process under the tracer: each
// read calls reportstore.Query, System.EntitySummary or System.Topology on a
// replica over a copy of the preloaded store, and the first pass's writes are
// interleaved evenly as DB.Observe calls and layer-by-layer diagnoses.
func (rr *readsRun) replay() error {
	e, out := rr.e, rr.out
	storeDir := filepath.Join(e.dir, "replica-reports")
	if err := rr.pl.copyTo(storeDir); err != nil {
		return err
	}
	tr := newTracer()
	rp, err := newReplica(tr, rr.inc, rr.sz.samples, storeDir)
	if err != nil {
		return err
	}
	defer rp.close()
	out.layers["reportstore.segment_bytes"] = float64(rp.store.Stats().SegmentBytes)
	warm := newTracer()
	if err := rp.ingest(warm, rr.inc.tail[0]); err != nil {
		return err
	}
	if _, err := rp.diagnose(warm, rr.inc.symptoms[0]); err != nil {
		return err
	}
	rp.stats = diagStats{}
	writes := rr.writes
	every := len(rr.script)/(len(writes)+1) + 1
	for i, op := range rr.script {
		if i%every == every-1 && len(writes) > 0 {
			ev := writes[0]
			writes = writes[1:]
			if ev.diagnose {
				err = tr.op("diagnose", func() error {
					_, err := rp.diagnose(tr, rr.inc.symptoms[ev.index])
					return err
				})
			} else {
				err = tr.op("ingest", func() error { return rp.ingest(tr, rr.inc.tail[ev.index]) })
			}
			if err != nil {
				return err
			}
		}
		if err := rr.replayRead(tr, rp, op); err != nil {
			return err
		}
	}
	s := tr.summary()
	rp.stats.layerMetrics(s, out)
	out.layers["reportstore.query_ms"] = s.meanMs("reportstore.query")
	out.layers["query.topology_ms"] = s.meanMs("query.topology")
	out.layers["query.performance_ms"] = s.meanMs("query.performance")
	s.unattributed(out)
	out.trace = tr
	return nil
}

// replayRead is one traced read op; a report search is one op per page.
func (rr *readsRun) replayRead(tr *tracer, rp *replica, op readOp) error {
	switch op.kind {
	case "performance":
		return tr.op("read", func() error {
			var err error
			tr.span("query.performance", func() { _, err = rp.sys.EntitySummary(op.entity, op.n) })
			return err
		})
	case "topology":
		return tr.op("read", func() error {
			var err error
			tr.span("query.topology", func() { _, err = rp.sys.Topology(op.entity, op.n) })
			return err
		})
	}
	after := op.filter.start
	for page := 0; page < op.pages; page++ {
		var pg *reportstore.Page
		err := tr.op("read", func() error {
			var err error
			tr.span("reportstore.query", func() { pg, err = rp.store.Query(op.filter.storeQuery(after)) })
			return err
		})
		if err != nil {
			return err
		}
		if pg.NextCursor == "" {
			return nil
		}
		if after, err = reportstore.ParseCursor(pg.NextCursor); err != nil {
			return err
		}
	}
	return nil
}
