package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// snapshotVersion versions the daemon snapshot format; snapshots from a
// newer version are rejected rather than silently misread.
const snapshotVersion = 1

// quarantineEntry is the wire form of one quarantined symptom.
type quarantineEntry struct {
	Symptom telemetry.Symptom `json:"symptom"`
	Until   time.Time         `json:"until"`
}

// daemonSnapshot is the crash-safe on-disk state: the monitoring database
// (embedded in its own snapshot format), the quarantine list, and — when the
// system trains incrementally — the factor store's sufficient statistics,
// so a restarted daemon resumes serving correct diagnoses for pre-crash
// symptoms without retraining a single factor. Reports and their sequence
// live in the report store, not here; the "reports" and "seq" keys of
// snapshots that still carry them are ignored on load.
type daemonSnapshot struct {
	Version    int               `json:"version"`
	SavedAt    time.Time         `json:"saved_at"`
	DB         json.RawMessage   `json:"db"`
	Quarantine []quarantineEntry `json:"quarantine,omitempty"`
	// FactorStore is the incremental trainer's serialized state (absent when
	// the daemon trains full windows). It is self-validating on adoption: a
	// restored store that disagrees with the restored database degrades to a
	// cold start, never to wrong factors.
	FactorStore json.RawMessage `json:"factor_store,omitempty"`
}

// markDirty notes that state changed since the last snapshot, so the
// periodic loop knows whether writing is worthwhile.
func (s *Server) markDirty() {
	s.mu.Lock()
	s.dirty = true
	s.mu.Unlock()
}

// WriteSnapshot writes the daemon state to Config.SnapshotPath via a temp
// file in the same directory and an atomic rename, so a crash mid-write
// leaves the previous snapshot intact. No-op when persistence is disabled.
func (s *Server) WriteSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	var dbBuf bytes.Buffer
	if err := s.db.WriteJSON(&dbBuf); err != nil {
		return fmt.Errorf("serve: snapshot db: %w", err)
	}
	var storeBuf []byte
	if fs := s.sys.FactorStore(); fs != nil {
		data, err := fs.Snapshot()
		if err != nil {
			return fmt.Errorf("serve: snapshot factor store: %w", err)
		}
		storeBuf = data
	}
	s.mu.Lock()
	snap := daemonSnapshot{
		Version:     snapshotVersion,
		SavedAt:     time.Now().UTC(),
		DB:          json.RawMessage(dbBuf.Bytes()),
		FactorStore: storeBuf,
	}
	for sym, until := range s.quarantine {
		snap.Quarantine = append(snap.Quarantine, quarantineEntry{Symptom: sym, Until: until})
	}
	s.mu.Unlock()

	dir := filepath.Dir(s.cfg.SnapshotPath)
	tmp, err := os.CreateTemp(dir, ".murphyd-snap-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(&snap); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.cfg.SnapshotPath); err != nil {
		return fmt.Errorf("serve: publish snapshot: %w", err)
	}
	s.rec.Add(obs.CtrSnapshotsWritten, 1)
	s.mu.Lock()
	s.dirty = false
	s.lastSnap = time.Now()
	s.mu.Unlock()
	return nil
}

// LoadSnapshot reads a daemon snapshot file and reconstructs the monitoring
// database it embeds. Callers build the Server over the returned DB and then
// call Restore with the same snapshot to recover the rest of the state.
func LoadSnapshot(path string) (*daemonSnapshot, *telemetry.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var snap daemonSnapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("serve: decode snapshot %s: %w", path, err)
	}
	if snap.Version > snapshotVersion {
		return nil, nil, fmt.Errorf("serve: snapshot version %d is newer than supported %d", snap.Version, snapshotVersion)
	}
	if len(snap.DB) == 0 {
		return nil, nil, fmt.Errorf("serve: snapshot %s has no database", path)
	}
	db, err := telemetry.ReadJSON(bytes.NewReader(snap.DB))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot db: %w", err)
	}
	return &snap, db, nil
}

// Recover restores a daemon's serving state (unexpired quarantine and —
// when the system trains incrementally — the factor store's staged
// statistics) from a snapshot previously read by LoadSnapshot. Call it after
// New, before Start.
func (s *Server) Recover(snap *daemonSnapshot) {
	if snap == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	for _, q := range snap.Quarantine {
		if q.Until.After(now) {
			s.quarantine[q.Symptom] = q.Until
		}
	}
	s.mu.Unlock()
	if len(snap.FactorStore) > 0 {
		if fs := s.sys.FactorStore(); fs != nil {
			// Stage the persisted sufficient statistics; the first training
			// pass validates them against the recovered database and either
			// warm-starts (zero full retrains) or silently falls back to a
			// cold anchoring pass. A decode failure takes the same fallback.
			_ = fs.RestoreSnapshot(snap.FactorStore)
		}
	}
	s.rec.Add(obs.CtrSnapshotsRecovered, 1)
}

// RecoverFromDisk is the boot-time convenience: when the snapshot file
// exists, it loads it and returns the embedded DB plus a restore function to
// call on the Server built over that DB; when the file does not exist it
// returns (nil, nil, nil) and the caller boots fresh.
func RecoverFromDisk(path string) (*telemetry.DB, func(*Server), error) {
	if path == "" {
		return nil, nil, nil
	}
	snap, db, err := LoadSnapshot(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	return db, func(s *Server) { s.Recover(snap) }, nil
}

// snapshotLoop writes a snapshot every SnapshotEvery while state is dirty.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		s.mu.Lock()
		dirty := s.dirty
		s.mu.Unlock()
		if !dirty {
			continue
		}
		if err := s.WriteSnapshot(); err != nil {
			// Persistence is best-effort resilience, not correctness: log
			// through the counter (snapshots_written stops advancing) and
			// keep serving; the next tick retries.
			continue
		}
	}
}
