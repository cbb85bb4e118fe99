package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// PersistedJob is the durable form of one job: everything needed to
// answer status and report queries after a restart. The report is kept
// as raw JSON (the exact object the report endpoint serves inside its
// one-element array), so persistence cannot drift from the wire format.
type PersistedJob struct {
	ID         string          `json:"id"`
	Spec       SubmitRequest   `json:"spec"`
	State      State           `json:"state"`
	Error      string          `json:"error,omitempty"`
	Created    time.Time       `json:"created"`
	Started    time.Time       `json:"started,omitempty"`
	Finished   time.Time       `json:"finished,omitempty"`
	TrialsDone int             `json:"trials_done"`
	RequestID  string          `json:"request_id,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
}

// Store persists the job table. Load seeds the table on startup so a
// restarted server still answers for finished jobs; SaveJob and DeleteJob
// persist one job's state change or eviction as it happens — O(1) per
// transition instead of O(jobs × report size) — and Save writes a full
// snapshot on shutdown.
//
// Implementations must be safe for concurrent use by one manager
// (Save/SaveJob/DeleteJob calls are serialized by the manager, Load
// happens once).
type Store interface {
	Load() ([]PersistedJob, error)
	Save([]PersistedJob) error
	SaveJob(PersistedJob) error
	DeleteJob(id string) error
}

// MemStore is a Store that keeps the job table in memory — the default
// when no state file is configured, and the restart-simulation vehicle
// for tests.
type MemStore struct {
	jobs []PersistedJob
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Load returns the current table.
func (m *MemStore) Load() ([]PersistedJob, error) { return m.jobs, nil }

// Save replaces the table.
func (m *MemStore) Save(jobs []PersistedJob) error {
	m.jobs = append([]PersistedJob(nil), jobs...)
	return nil
}

// SaveJob inserts or replaces one job, keeping first-save order.
func (m *MemStore) SaveJob(j PersistedJob) error {
	for i := range m.jobs {
		if m.jobs[i].ID == j.ID {
			m.jobs[i] = j
			return nil
		}
	}
	m.jobs = append(m.jobs, j)
	return nil
}

// DeleteJob drops one job; an unknown ID is not an error.
func (m *MemStore) DeleteJob(id string) error {
	m.jobs = slices.DeleteFunc(m.jobs, func(j PersistedJob) bool { return j.ID == id })
	return nil
}

// compactThreshold is how many journal records a FileStore accumulates
// before folding them into a fresh snapshot and truncating the journal.
const compactThreshold = 256

// FileStore persists the job table as a JSON snapshot plus an append
// journal ("<path>.journal", one JSON record per line). State changes
// append one record — O(1), instead of the former whole-table rewrite
// on every transition — and the journal folds into a fresh atomically
// renamed snapshot every compactThreshold records (and on every full
// Save, e.g. shutdown). Load replays the journal over the snapshot and
// tolerates a torn final line, so a crash mid-append loses at most the
// interrupted record, never the store.
type FileStore struct {
	path string

	mu      sync.Mutex
	journal *os.File       // open append handle, lazily created
	jobs    []PersistedJob // current table, snapshot ⊕ journal
	idx     map[string]int // job ID → index in jobs
	pending int            // journal records since the last snapshot
}

// NewFileStore creates a store writing to path. The file need not
// exist yet; its directory must.
func NewFileStore(path string) *FileStore {
	return &FileStore{path: path, idx: make(map[string]int)}
}

// journalPath is the sidecar append log.
func (f *FileStore) journalPath() string { return f.path + ".journal" }

// fileSnapshot is the on-disk envelope, versioned so a future format
// change can migrate instead of guessing.
type fileSnapshot struct {
	Version int            `json:"version"`
	Saved   time.Time      `json:"saved"`
	Jobs    []PersistedJob `json:"jobs"`
}

// journalEntry is one journal line: an upsert or a deletion.
type journalEntry struct {
	Put    *PersistedJob `json:"put,omitempty"`
	Delete string        `json:"delete,omitempty"`
}

// Load reads the snapshot, replays the journal over it, and seeds the
// store's in-memory mirror. A missing file is an empty store, not an
// error; a torn trailing journal line (crash mid-append) ends the
// replay silently.
func (f *FileStore) Load() ([]PersistedJob, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs, f.idx, f.pending = nil, make(map[string]int), 0

	data, err := os.ReadFile(f.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("server: load job store: %w", err)
	default:
		var snap fileSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("server: job store %s is corrupt: %w", f.path, err)
		}
		if snap.Version != 1 {
			return nil, fmt.Errorf("server: job store %s has unknown version %d", f.path, snap.Version)
		}
		for _, j := range snap.Jobs {
			f.upsertLocked(j)
		}
	}

	jf, err := os.Open(f.journalPath())
	if err == nil {
		sc := bufio.NewScanner(jf)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var e journalEntry
			if json.Unmarshal(line, &e) != nil {
				break // torn final record from a crash mid-append
			}
			switch {
			case e.Put != nil:
				f.upsertLocked(*e.Put)
			case e.Delete != "":
				f.deleteLocked(e.Delete)
			}
			f.pending++
		}
		jf.Close()
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("server: load job journal: %w", err)
	}
	return append([]PersistedJob(nil), f.jobs...), nil
}

// upsertLocked replaces or appends one job in the mirror, preserving
// first-seen order. Callers hold f.mu.
func (f *FileStore) upsertLocked(j PersistedJob) {
	if i, ok := f.idx[j.ID]; ok {
		f.jobs[i] = j
		return
	}
	f.idx[j.ID] = len(f.jobs)
	f.jobs = append(f.jobs, j)
}

// deleteLocked removes one job from the mirror. Callers hold f.mu.
func (f *FileStore) deleteLocked(id string) {
	i, ok := f.idx[id]
	if !ok {
		return
	}
	f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
	delete(f.idx, id)
	for k := i; k < len(f.jobs); k++ {
		f.idx[f.jobs[k].ID] = k
	}
}

// SaveJob appends one upsert to the journal, compacting into a fresh
// snapshot once enough records accumulate.
func (f *FileStore) SaveJob(j PersistedJob) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.upsertLocked(j)
	return f.appendLocked(journalEntry{Put: &j})
}

// DeleteJob appends one deletion to the journal.
func (f *FileStore) DeleteJob(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deleteLocked(id)
	return f.appendLocked(journalEntry{Delete: id})
}

// appendLocked writes one journal record and compacts past the
// threshold. Callers hold f.mu.
func (f *FileStore) appendLocked(e journalEntry) error {
	if f.journal == nil {
		jf, err := os.OpenFile(f.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("server: open job journal: %w", err)
		}
		f.journal = jf
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("server: encode job journal record: %w", err)
	}
	if _, err := f.journal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("server: append job journal: %w", err)
	}
	f.pending++
	if f.pending >= compactThreshold {
		return f.compactLocked()
	}
	return nil
}

// Save atomically replaces the snapshot file with the given table and
// truncates the journal (the snapshot supersedes it).
func (f *FileStore) Save(jobs []PersistedJob) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs, f.idx = nil, make(map[string]int)
	for _, j := range jobs {
		f.upsertLocked(j)
	}
	return f.compactLocked()
}

// compactLocked writes the mirror as an atomic snapshot, then resets
// the journal. Snapshot-then-truncate order keeps a crash between the
// two harmless: replaying the stale journal over the new snapshot is a
// sequence of idempotent upserts/deletes. Callers hold f.mu.
func (f *FileStore) compactLocked() error {
	if err := f.writeSnapshotLocked(); err != nil {
		return err
	}
	if f.journal != nil {
		f.journal.Close()
		f.journal = nil
	}
	if err := os.Remove(f.journalPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: truncate job journal: %w", err)
	}
	f.pending = 0
	return nil
}

// writeSnapshotLocked atomically replaces the snapshot file (temp file
// + rename) so a crash mid-save never corrupts the previous snapshot.
// Callers hold f.mu.
func (f *FileStore) writeSnapshotLocked() error {
	data, err := json.MarshalIndent(fileSnapshot{Version: 1, Saved: time.Now().UTC(), Jobs: f.jobs}, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode job store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(f.path), filepath.Base(f.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("server: save job store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("server: save job store: %w", werr)
		}
		return fmt.Errorf("server: save job store: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), f.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: save job store: %w", err)
	}
	return nil
}
