// Package reportstore is the serve layer's only home for completed diagnosis
// reports: an append-only segment file with CRC-framed JSON records, an
// in-memory index over the indexed fields, the report sequence, and a search
// API with stable pagination cursors.
//
// Durability contract: Append fsyncs the segment before returning, so a
// record whose Append returned nil survives kill -9 — the daemon acknowledges
// a diagnosis to its client only after the append returns. A failed Append
// leaves the store as it was: every frame is written at the end of the last
// good one, and the index and sequence advance only after write and fsync
// succeed. Crash recovery is Open: the segment is scanned frame by frame and
// a torn or corrupt final record (a crash mid-write) is truncated away, never
// propagated. Open decodes each frame's indexed fields and checks its
// payload's JSON in place; replayed payloads share the buffer the segment was
// read into.
//
// Retention rewrites the segment through the same temp + fsync + rename
// discipline the serve snapshots use, keeping the newest MaxRecords records.
// Sequence numbers are preserved across compaction, so pagination cursors
// (opaque encodings of the last-seen sequence number) stay valid: a cursor
// taken before a compaction simply skips the expired prefix.
package reportstore

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// segmentName is the single segment file inside the store directory.
const segmentName = "reports.seg"

// frameHeaderLen is the per-record framing overhead: a 4-byte big-endian
// payload length followed by a 4-byte IEEE CRC32 of the payload.
const frameHeaderLen = 8

// maxFrameLen caps a frame's JSON body. Append refuses a longer record, and
// replay reads a longer length as a corrupt header rather than allocating it.
const maxFrameLen = 16 << 20

// payloadKey is what Append's encoding writes between the indexed fields and
// the payload: json.Marshal writes Record's fields in order, payload last,
// and escapes every quote inside a string, so in a frame Append wrote the
// first occurrence of these bytes is the payload's key.
var payloadKey = []byte(`,"payload":`)

// maxNesting is encoding/json's nesting limit. In a frame the payload sits
// one level below the record, so a payload that reaches the limit on its own
// is valid by itself but not inside its frame.
const maxNesting = 10000

// DefaultLimit and MaxLimit bound Query pages.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
)

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("reportstore: store is closed")

// Record is one persisted report: the indexed search fields plus the raw
// payload (the serve layer's full wire record). The store never interprets
// Payload; search runs over the indexed fields only, so the store stays
// decoupled from the report schema above it.
type Record struct {
	// Seq is the monotonically increasing sequence number; it doubles as the
	// pagination cursor position and survives retention compaction.
	Seq int64 `json:"seq"`
	// At is the completion time (UTC).
	At time.Time `json:"at"`
	// Source, Entity, Metric, and App index the diagnosis: who asked, which
	// (entity, metric) symptom, and the entity's application.
	Source string `json:"source,omitempty"`
	Entity string `json:"entity"`
	Metric string `json:"metric,omitempty"`
	App    string `json:"app,omitempty"`
	// Causes lists the certified cause entities, rank order.
	Causes []string `json:"causes,omitempty"`
	// Failed marks a diagnosis that ended in an error (partial shell report).
	Failed bool `json:"failed,omitempty"`
	// Payload is the full report record as served by the query API.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Options tunes a store.
type Options struct {
	// MaxRecords caps retained records (0 = unlimited). Compaction keeps the
	// newest MaxRecords once the index overshoots the cap by 25%.
	MaxRecords int
	// NoSync skips the per-append fsync. Only for tests and benchmarks that
	// trade the durability contract for speed.
	NoSync bool
}

// Query selects records. Zero-valued fields do not filter.
type Query struct {
	// Entity, App, Cause, and Source filter on the indexed fields (Cause
	// matches membership in a record's Causes list).
	Entity string
	App    string
	Cause  string
	Source string
	// Since/Until bound the completion time (inclusive); zero means open.
	Since time.Time
	Until time.Time
	// AfterSeq keeps only records with Seq > AfterSeq: a cursor position,
	// or the last sequence number a client saw.
	AfterSeq int64
	// Limit caps the page size (0 = DefaultLimit, never above MaxLimit).
	Limit int
}

// Page is one page of query results, ascending by Seq.
type Page struct {
	Records []*Record
	// NextCursor resumes the scan after the last returned record; empty when
	// the scan is exhausted.
	NextCursor string
}

// Stats is a point-in-time view of the store.
type Stats struct {
	Records      int
	LastSeq      int64
	Appends      uint64
	Compactions  uint64
	SegmentBytes int64
	// Truncated reports how many trailing bytes Open discarded as a torn or
	// corrupt final record.
	Truncated int64
}

// Store is a crash-safe persisted report store over one directory. All
// methods are safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	dir  string
	path string
	opts Options

	f      *os.File
	size   int64     // end of the last good frame; the next frame goes here
	recs   []*Record // ascending Seq
	spans  []span    // spans[i] locates recs[i]'s frame in the segment
	last   int64
	closed bool

	appends     uint64
	compactions uint64
	truncated   int64
}

// span locates one frame in the segment, header included. Compaction copies
// the retained frames by span, so a frame's bytes are never re-encoded.
type span struct {
	off int64
	n   int
}

// bySeq sorts the index and its frame spans together.
type bySeq struct{ s *Store }

func (b bySeq) Len() int           { return len(b.s.recs) }
func (b bySeq) Less(i, j int) bool { return b.s.recs[i].Seq < b.s.recs[j].Seq }
func (b bySeq) Swap(i, j int) {
	b.s.recs[i], b.s.recs[j] = b.s.recs[j], b.s.recs[i]
	b.s.spans[i], b.s.spans[j] = b.s.spans[j], b.s.spans[i]
}

// Open opens (creating if necessary) the store under dir and replays its
// segment into the in-memory index. A torn or corrupt tail is truncated away;
// everything before it is recovered.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("reportstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reportstore: create %s: %w", dir, err)
	}
	path := filepath.Join(dir, segmentName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reportstore: open segment: %w", err)
	}
	s := &Store{dir: dir, path: path, opts: opts, f: f}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the segment, indexes every intact record, and truncates the
// file at the first torn or corrupt frame. The segment is read in one buffer
// sized from the file, which the replayed payloads then share.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("reportstore: stat segment: %w", err)
	}
	buf := make([]byte, info.Size())
	if _, err := io.ReadFull(s.f, buf); err != nil {
		return fmt.Errorf("reportstore: read segment: %w", err)
	}
	off := 0
	for {
		rec, n, ok := decodeFrame(buf[off:])
		if !ok {
			break
		}
		s.recs = append(s.recs, rec)
		s.spans = append(s.spans, span{int64(off), n})
		off += n
		if rec.Seq > s.last {
			s.last = rec.Seq
		}
	}
	if off < len(buf) {
		// Torn or corrupt tail — a crash mid-append. Drop it so the next
		// append lands on a clean frame boundary.
		s.truncated = int64(len(buf) - off)
		if err := s.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("reportstore: truncate torn tail: %w", err)
		}
	}
	// Defensive: a hand-edited or merged segment could be out of order;
	// queries rely on ascending Seq for the cursor binary search.
	sort.Stable(bySeq{s})
	s.size = int64(off)
	return nil
}

// decodeFrame decodes one framed record from the head of buf, returning the
// record, the bytes consumed, and whether the frame was intact: its CRC
// matches and json.Unmarshal accepts its body as a Record. The record is the
// one json.Unmarshal yields, but its Payload may alias buf.
func decodeFrame(buf []byte) (*Record, int, bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, false
	}
	n := int(binary.BigEndian.Uint32(buf[0:4]))
	sum := binary.BigEndian.Uint32(buf[4:8])
	if n <= 0 || n > maxFrameLen || len(buf) < frameHeaderLen+n {
		return nil, 0, false
	}
	body := buf[frameHeaderLen : frameHeaderLen+n]
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, false
	}
	rec, ok := decodeIndex(body)
	if !ok {
		rec = new(Record)
		if err := json.Unmarshal(body, rec); err != nil {
			return nil, 0, false
		}
	}
	return rec, frameHeaderLen + n, true
}

// decodeIndex decodes a frame body without decoding its payload, and yields
// what json.Unmarshal of the whole body would. The index is the bytes before
// the first payloadKey, closed with '}'; the payload is the rest less the
// body's closing brace, checked with json.Valid and kept as a capped
// sub-slice of body. It reports false, leaving the body to json.Unmarshal,
// wherever that split could read the body differently: no key or no final
// '}', an empty or whitespace-padded payload, one that could reach the
// nesting limit, no member before the key ({,"payload":…}), or an index
// that does not decode. A key found inside a nested value leaves that value
// open in the index, which then does not decode; an index that sets Payload
// itself needs no fall-back, since json.Unmarshal keeps the last member.
func decodeIndex(body []byte) (*Record, bool) {
	k := bytes.Index(body, payloadKey)
	last := len(body) - 1
	if k < 0 || body[last] != '}' {
		return nil, false
	}
	payload := body[k+len(payloadKey) : last : last]
	if len(payload) == 0 || isSpace(payload[0]) || isSpace(payload[len(payload)-1]) ||
		bytes.Count(payload, []byte("{"))+bytes.Count(payload, []byte("[")) >= maxNesting {
		return nil, false
	}
	index := bytes.TrimRight(body[:k], " \t\r\n")
	if len(index) == 0 || index[len(index)-1] == '{' {
		return nil, false
	}
	var rec Record
	if json.Unmarshal(append(body[:k:k], '}'), &rec) != nil || !json.Valid(payload) {
		return nil, false
	}
	rec.Payload = payload
	return &rec, true
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// encodeFrame appends the framed encoding of payload to dst.
func encodeFrame(dst []byte, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Append durably persists one record and returns its sequence number. A
// caller-provided Seq greater than the store's last is adopted; otherwise
// the store assigns last+1. When Append returns nil the record has been
// fsynced: it survives kill -9. When it returns an error the store is
// unchanged, and the next frame overwrites whatever the failed write left.
// A record whose encoding exceeds the 16 MiB frame cap is refused.
func (s *Store) Append(rec *Record) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if rec.Seq <= s.last {
		rec.Seq = s.last + 1
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("reportstore: encode record: %w", err)
	}
	if len(payload) > maxFrameLen {
		// Replay would read the frame as a torn tail and drop it, and every
		// frame after it.
		return 0, fmt.Errorf("reportstore: record of %d bytes exceeds the %d-byte frame cap", len(payload), maxFrameLen)
	}
	frame := encodeFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		return 0, fmt.Errorf("reportstore: append record: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return 0, fmt.Errorf("reportstore: sync segment: %w", err)
		}
	}
	s.last = rec.Seq
	s.recs = append(s.recs, rec)
	s.spans = append(s.spans, span{s.size, len(frame)})
	s.size += int64(len(frame))
	s.appends++
	if s.opts.MaxRecords > 0 && len(s.recs) > s.opts.MaxRecords+s.opts.MaxRecords/4 {
		if err := s.compactLocked(); err != nil {
			// The append itself is durable; a failed compaction only delays
			// retention until the next trigger.
			return rec.Seq, nil
		}
	}
	return rec.Seq, nil
}

// compactLocked rewrites the segment keeping the newest MaxRecords records,
// via a temp file and an atomic rename so a crash mid-compaction leaves the
// previous segment intact. The retained frames are copied from the old
// segment as they are, and the temp file's handle becomes the segment's.
// Callers hold s.mu.
func (s *Store) compactLocked() error {
	drop := len(s.recs) - s.opts.MaxRecords
	keep := s.spans[drop:]
	size := 0
	for _, sp := range keep {
		size += sp.n
	}
	buf := make([]byte, size)
	pos := 0
	for _, sp := range keep {
		if _, err := s.f.ReadAt(buf[pos:pos+sp.n], sp.off); err != nil {
			return err
		}
		pos += sp.n
	}
	tmp, err := os.CreateTemp(s.dir, ".reports-seg-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		tmp.Close()
		return err
	}
	// The old handle points at the unlinked inode; appends go on through the
	// temp file's handle, which now names the published segment.
	s.f.Close()
	s.f = tmp
	s.size = int64(size)
	pos = 0
	for i, sp := range keep {
		s.spans[i] = span{int64(pos), sp.n}
		pos += sp.n
	}
	s.spans = s.spans[:len(keep)]
	s.recs = append(s.recs[:0], s.recs[drop:]...)
	s.compactions++
	return nil
}

// Query returns one page of matching records, ascending by Seq.
func (s *Store) Query(q Query) (*Page, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if limit > MaxLimit {
		limit = MaxLimit
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	// First index with Seq > AfterSeq: the cursor position survives compaction
	// because expired records only ever vanish from the front.
	i := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].Seq > q.AfterSeq })
	page := &Page{}
	for ; i < len(s.recs); i++ {
		rec := s.recs[i]
		if !q.matches(rec) {
			continue
		}
		if len(page.Records) == limit {
			// One more match exists beyond the full page, so the scan is not
			// exhausted: hand back a resume cursor.
			page.NextCursor = Cursor(page.Records[limit-1].Seq)
			return page, nil
		}
		page.Records = append(page.Records, rec)
	}
	return page, nil
}

// matches reports whether rec passes every set field filter (Query applies
// AfterSeq by position).
func (q Query) matches(rec *Record) bool {
	if q.Entity != "" && rec.Entity != q.Entity {
		return false
	}
	if q.App != "" && rec.App != q.App {
		return false
	}
	if q.Source != "" && rec.Source != q.Source {
		return false
	}
	if q.Cause != "" {
		found := false
		for _, c := range rec.Causes {
			if c == q.Cause {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if !q.Since.IsZero() && rec.At.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && rec.At.After(q.Until) {
		return false
	}
	return true
}

// LastSeq returns the highest sequence number ever appended (0 when empty).
func (s *Store) LastSeq() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.last
}

// Len returns the number of records currently retained.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Stats returns a point-in-time view of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Records:      len(s.recs),
		LastSeq:      s.last,
		Appends:      s.appends,
		Compactions:  s.compactions,
		SegmentBytes: s.size,
		Truncated:    s.truncated,
	}
}

// Close syncs and closes the segment. Further calls return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			s.f.Close()
			return err
		}
	}
	return s.f.Close()
}

// cursorPrefix versions the cursor encoding; unknown versions are rejected
// rather than misread.
const cursorPrefix = "v1:"

// Cursor encodes a resume position after seq as an opaque token.
func Cursor(seq int64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + strconv.FormatInt(seq, 10)))
}

// ParseCursor decodes a token produced by Cursor.
func ParseCursor(tok string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, fmt.Errorf("reportstore: bad cursor: %w", err)
	}
	rest, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if !ok {
		return 0, fmt.Errorf("reportstore: bad cursor version")
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("reportstore: bad cursor position")
	}
	return seq, nil
}
