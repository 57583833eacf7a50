package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"autopipe/client"
)

// storedJob is the on-disk form of a job: the wire document plus the
// original request, so a daemon restarted mid-queue can re-run work that
// never finished.
type storedJob struct {
	Job     *client.Job          `json:"job"`
	Request client.SubmitRequest `json:"request"`
}

// diskStore persists jobs as one JSON file per job under a directory,
// written atomically (temp file + rename) so a crash mid-write leaves either
// the old document or the new one, never a torn file. A nil *diskStore is a
// valid no-op store — the daemon runs memory-only without -store.
type diskStore struct {
	dir string
}

// openStore creates (if needed) and opens the store directory.
func openStore(dir string) (*diskStore, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	return &diskStore{dir: dir}, nil
}

// Put writes the job's current state. Safe to call on a nil store.
func (s *diskStore) Put(j *client.Job, req client.SubmitRequest) error {
	if s == nil {
		return nil
	}
	data, err := json.MarshalIndent(storedJob{Job: j, Request: req}, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode job %s: %w", j.ID, err)
	}
	final := filepath.Join(s.dir, j.ID+".json")
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: persist job %s: %w", j.ID, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("service: persist job %s: %w", j.ID, err)
	}
	return nil
}

// Delete removes a job's document (used when an admitted-then-shed job must
// not resurrect on the next restart). Missing files are fine; safe on a nil
// store.
func (s *diskStore) Delete(id string) error {
	if s == nil {
		return nil
	}
	if err := os.Remove(filepath.Join(s.dir, id+".json")); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: delete stored job %s: %w", id, err)
	}
	return nil
}

// Load reads every persisted job in submission order (by ID sequence
// number).
//
// Damaged files — a tail truncated by a crash mid-write on a filesystem
// without atomic rename durability, a torn document, a stray .tmp from an
// interrupted atomic write — do not stop the boot and do not silently
// vanish: each is quarantined in place by renaming it to <name>.corrupt and
// reported in the second return value, so every intact job (in particular
// every finished result) still loads and the operator can inspect the
// damage. A file that vanishes after the listing, such as a .tmp renamed
// into place or a document deleted by a shed, is gone and is skipped. Safe
// to call on a nil store (returns nothing).
func (s *diskStore) Load() ([]storedJob, []string, error) {
	if s == nil {
		return nil, nil, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: read store: %w", err)
	}
	return s.load(entries)
}

// load is Load over a given listing of the store directory.
func (s *diskStore) load(entries []os.DirEntry) ([]storedJob, []string, error) {
	var jobs []storedJob
	var quarantined []string
	quarantine := func(name string) error {
		from := filepath.Join(s.dir, name)
		if err := os.Rename(from, from+".corrupt"); errors.Is(err, fs.ErrNotExist) {
			return nil
		} else if err != nil {
			return fmt.Errorf("service: quarantine %s: %w", name, err)
		}
		quarantined = append(quarantined, name)
		return nil
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasSuffix(name, ".corrupt") {
			continue
		}
		// A leftover .tmp is a torn atomic write: the rename never happened,
		// so the final file (if any) still holds the previous good document.
		// Quarantine the fragment rather than guessing at its completeness.
		if strings.HasSuffix(name, ".tmp") {
			if err := quarantine(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return nil, nil, fmt.Errorf("service: read stored job %s: %w", name, err)
		}
		var sj storedJob
		if err := json.Unmarshal(data, &sj); err != nil {
			if err := quarantine(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		if sj.Job == nil || sj.Job.ID == "" {
			if err := quarantine(name); err != nil {
				return nil, nil, err
			}
			continue
		}
		jobs = append(jobs, sj)
	}
	slices.SortFunc(jobs, func(a, b storedJob) int { return compareIDs(a.Job.ID, b.Job.ID) })
	return jobs, quarantined, nil
}
