package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func storedJob(id string, state State, trials int) PersistedJob {
	return PersistedJob{
		ID:         id,
		Spec:       SubmitRequest{Benchmark: "b1"},
		State:      state,
		Created:    time.Unix(1700000000, 0).UTC(),
		TrialsDone: trials,
	}
}

// TestFileStoreJournalRoundTrip: per-job puts and deletes survive a
// reload without any full snapshot ever being written.
func TestFileStoreJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("b", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("a", StateDone, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteJob("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot written before any compaction: %v", err)
	}

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" || jobs[0].State != StateDone || jobs[0].TrialsDone != 7 {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestMemStoreMatchesFileStore: the in-memory store answers Load after
// per-job saves and deletes exactly as a reloaded FileStore does.
func TestMemStoreMatchesFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f, m := NewFileStore(path), NewMemStore()
	for _, st := range []Store{f, m} {
		for _, j := range []PersistedJob{storedJob("a", StateQueued, 0), storedJob("b", StateQueued, 0), storedJob("c", StateRunning, 1)} {
			if err := st.SaveJob(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.SaveJob(storedJob("a", StateDone, 7)); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"b", "nosuch"} {
			if err := st.DeleteJob(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.SaveJob(storedJob("d", StateQueued, 0)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("MemStore table %+v, FileStore reload %+v", got, want)
	}
}

// TestFileStoreCompaction: once compactThreshold records accumulate,
// the journal folds into an atomic snapshot and resets; nothing is
// lost across the fold or a subsequent reload.
func TestFileStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	total := compactThreshold + 10
	for i := 0; i < total; i++ {
		if err := f.SaveJob(storedJob(fmt.Sprintf("j%03d", i%8), StateDone, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot after crossing the threshold: %v", err)
	}
	data, err := os.ReadFile(path + ".journal")
	if err != nil {
		t.Fatalf("journal after compaction: %v", err)
	}
	if lines := bytes.Count(data, []byte{'\n'}); lines >= compactThreshold {
		t.Fatalf("journal kept %d records after compaction", lines)
	}

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("reloaded %d jobs, want 8", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateDone {
			t.Fatalf("job %s state %s", j.ID, j.State)
		}
	}
}

// TestFileStoreTornJournalLine: a crash mid-append leaves a torn final
// record; Load keeps everything before it instead of failing.
func TestFileStoreTornJournalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateDone, 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("b", StateCancelled, 1)); err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(path+".journal", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"put":{"id":"c","sp`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatalf("torn journal line failed the load: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != "a" || jobs[1].ID != "b" {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreFullSaveSupersedesJournal: a full Save (shutdown path)
// compacts to a snapshot and drops the journal.
func TestFileStoreFullSaveSupersedesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.SaveJob(storedJob("a", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("b", StateQueued, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Save([]PersistedJob{storedJob("a", StateDone, 9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".journal"); !os.IsNotExist(err) {
		t.Fatalf("journal survived a full save: %v", err)
	}
	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" || jobs[0].TrialsDone != 9 {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// TestFileStoreSnapshotPlusJournalReplay: journal records layered over
// an existing snapshot win on reload (put upserts, delete removes).
func TestFileStoreSnapshotPlusJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	f := NewFileStore(path)
	if err := f.Save([]PersistedJob{
		storedJob("a", StateDone, 1),
		storedJob("b", StateDone, 2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveJob(storedJob("a", StateCancelled, 5)); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteJob("b"); err != nil {
		t.Fatal(err)
	}
	jobs, err := NewFileStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" || jobs[0].State != StateCancelled || jobs[0].TrialsDone != 5 {
		t.Fatalf("reloaded table: %+v", jobs)
	}
}

// benchTable builds a job table shaped like a busy server: size
// finished jobs, each carrying a report of reportBytes raw JSON.
func benchTable(size, reportBytes int) []PersistedJob {
	report := json.RawMessage(`{"pad":"` + strings.Repeat("x", reportBytes) + `"}`)
	out := make([]PersistedJob, size)
	for i := range out {
		out[i] = storedJob(fmt.Sprintf("j%04d", i), StateDone, 40)
		out[i].Report = report
	}
	return out
}

// BenchmarkFileStorePerJobSave measures what one job state change now
// costs: a single journal append (amortizing periodic compaction).
func BenchmarkFileStorePerJobSave(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.json")
	f := NewFileStore(path)
	table := benchTable(256, 4096)
	if err := f.Save(table); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SaveJob(table[i%len(table)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileStoreFullSnapshot measures the former behavior: rewrite
// the whole table on every state change.
func BenchmarkFileStoreFullSnapshot(b *testing.B) {
	path := filepath.Join(b.TempDir(), "jobs.json")
	f := NewFileStore(path)
	table := benchTable(256, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Save(table); err != nil {
			b.Fatal(err)
		}
	}
}
