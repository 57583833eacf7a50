package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"autopipe/client"
)

// TestStoreRoundTrip proves jobs persist and reload in submission order, and
// that rewriting a job replaces its document.
func TestStoreRoundTrip(t *testing.T) {
	st, err := openStore(t.TempDir())
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	reqs := []client.SubmitRequest{testPlanBody(0), testPlanBody(1)}
	for i, req := range reqs {
		j := &client.Job{ID: jobID(i + 1), Kind: client.KindPlan, State: client.StatePending}
		if err := st.Put(j, req); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Rewrite job 1 as done; the store must keep one document per job.
	done := &client.Job{ID: jobID(1), Kind: client.KindPlan, State: client.StateDone, Result: stubResult()}
	if err := st.Put(done, reqs[0]); err != nil {
		t.Fatalf("Put rewrite: %v", err)
	}

	jobs, quarantined, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(quarantined) != 0 {
		t.Errorf("quarantined %v from a healthy store", quarantined)
	}
	if len(jobs) != 2 {
		t.Fatalf("loaded %d jobs, want 2", len(jobs))
	}
	if jobs[0].Job.ID != jobID(1) || jobs[1].Job.ID != jobID(2) {
		t.Errorf("jobs out of order: %q, %q", jobs[0].Job.ID, jobs[1].Job.ID)
	}
	if jobs[0].Job.State != client.StateDone {
		t.Errorf("rewritten job did not persist: %+v", jobs[0].Job)
	}
	// The result survives as equivalent JSON (the store pretty-prints).
	var compact bytes.Buffer
	if err := json.Compact(&compact, jobs[0].Job.Result); err != nil {
		t.Fatalf("compact stored result: %v", err)
	}
	if compact.String() != string(stubResult()) {
		t.Errorf("stored result = %s, want %s", compact.String(), stubResult())
	}
	if jobs[1].Request.Plan == nil || jobs[1].Request.Plan.Run.GlobalBatch != reqs[1].Plan.Run.GlobalBatch {
		t.Errorf("request did not round-trip: %+v", jobs[1].Request)
	}
}

// TestStoreLoadOrdersPastEightDigits proves Load keeps submission order once
// IDs outgrow their eight zero-padded digits, where lexical order breaks.
func TestStoreLoadOrdersPastEightDigits(t *testing.T) {
	st, err := openStore(t.TempDir())
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	for _, n := range []int{100000000, 99999999} {
		if err := st.Put(&client.Job{ID: jobID(n), Kind: client.KindPlan, State: client.StatePending}, testPlanBody(0)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	jobs, _, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(jobs) != 2 || jobs[0].Job.ID != jobID(99999999) || jobs[1].Job.ID != jobID(100000000) {
		t.Errorf("loaded %v, want %s before %s", jobs, jobID(99999999), jobID(100000000))
	}
}

// TestStoreNil proves the nil store (memory-only mode) is a safe no-op.
func TestStoreNil(t *testing.T) {
	var st *diskStore
	if err := st.Put(&client.Job{ID: "job-00000001"}, client.SubmitRequest{}); err != nil {
		t.Errorf("nil Put: %v", err)
	}
	jobs, quarantined, err := st.Load()
	if err != nil || jobs != nil || quarantined != nil {
		t.Errorf("nil Load = %v, %v, %v; want nil, nil, nil", jobs, quarantined, err)
	}
	if st2, err := openStore(""); st2 != nil || err != nil {
		t.Errorf("openStore(\"\") = %v, %v; want nil, nil", st2, err)
	}
}

// TestStoreQuarantinesCorruptFiles proves damaged documents — a tail
// truncated mid-write, plain garbage, a parsable-but-empty document — are
// quarantined as .corrupt instead of failing the boot, while every intact
// job still loads. A second Load must skip the quarantined files entirely.
func TestStoreQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	if err := st.Put(&client.Job{ID: jobID(1), Kind: client.KindPlan, State: client.StateDone, Result: stubResult()}, testPlanBody(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Truncate a real document mid-write: take a valid file and cut it in half.
	good, err := os.ReadFile(filepath.Join(dir, jobID(1)+".json"))
	if err != nil {
		t.Fatalf("read good doc: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobID(2)+".json"), good[:len(good)/2], 0o644); err != nil {
		t.Fatalf("write truncated file: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobID(3)+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatalf("write garbage file: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobID(4)+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatalf("write empty doc: %v", err)
	}

	jobs, quarantined, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Job.ID != jobID(1) {
		t.Fatalf("loaded %d jobs (%v), want just the intact %s", len(jobs), jobs, jobID(1))
	}
	if len(quarantined) != 3 {
		t.Errorf("quarantined %v, want 3 damaged files", quarantined)
	}
	for _, n := range []int{2, 3, 4} {
		if _, err := os.Stat(filepath.Join(dir, jobID(n)+".json.corrupt")); err != nil {
			t.Errorf("damaged %s not renamed to .corrupt: %v", jobID(n), err)
		}
	}

	// A reboot after quarantine must not re-quarantine or resurrect anything.
	jobs, quarantined, err = st.Load()
	if err != nil {
		t.Fatalf("second Load: %v", err)
	}
	if len(jobs) != 1 || len(quarantined) != 0 {
		t.Errorf("second Load = %d jobs, quarantined %v; want 1 job, none quarantined", len(jobs), quarantined)
	}
}

// TestStoreQuarantinesTempFiles proves interrupted atomic writes (stray .tmp
// files) are quarantined without breaking the reload of intact jobs.
func TestStoreQuarantinesTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	if err := st.Put(&client.Job{ID: jobID(1), Kind: client.KindPlan, State: client.StatePending}, testPlanBody(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-00000002.json.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatalf("write temp file: %v", err)
	}
	jobs, quarantined, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(jobs) != 1 {
		t.Errorf("loaded %d jobs, want 1 (the .tmp file must not load)", len(jobs))
	}
	if len(quarantined) != 1 || quarantined[0] != "job-00000002.json.tmp" {
		t.Errorf("quarantined %v, want the torn .tmp", quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-00000002.json.tmp.corrupt")); err != nil {
		t.Errorf("torn .tmp not renamed to .corrupt: %v", err)
	}
}

// TestStoreLoadSkipsVanishedFiles proves a file that disappears between the
// directory listing and its read or quarantine does not fail the load: a
// killed daemon's last write renames its .tmp into place, and a shed job's
// document is deleted, while a reborn daemon is loading the store.
func TestStoreLoadSkipsVanishedFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if err := st.Put(&client.Job{ID: jobID(i), Kind: client.KindPlan, State: client.StatePending}, testPlanBody(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tmp := filepath.Join(dir, jobID(3)+".json.tmp")
	if err := os.WriteFile(tmp, []byte("in flight"), 0o644); err != nil {
		t.Fatalf("write temp file: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatalf("remove temp file: %v", err)
	}
	if err := st.Delete(jobID(2)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	jobs, quarantined, err := st.load(entries)
	if err != nil {
		t.Fatalf("load over a listing with vanished files: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Job.ID != jobID(1) || len(quarantined) != 0 {
		t.Errorf("load = %d jobs, quarantined %v; want only %s, none quarantined", len(jobs), quarantined, jobID(1))
	}
}

// TestStoreDelete proves Delete removes the document, tolerates missing
// files, and is safe on a nil store.
func TestStoreDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	if err := st.Put(&client.Job{ID: jobID(1), Kind: client.KindPlan, State: client.StatePending}, testPlanBody(0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Delete(jobID(1)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	jobs, _, err := st.Load()
	if err != nil || len(jobs) != 0 {
		t.Errorf("Load after Delete = %d jobs, %v; want empty", len(jobs), err)
	}
	if err := st.Delete(jobID(1)); err != nil {
		t.Errorf("Delete of missing job: %v", err)
	}
	var nilStore *diskStore
	if err := nilStore.Delete(jobID(1)); err != nil {
		t.Errorf("nil Delete: %v", err)
	}
}

func jobID(n int) string { return fmt.Sprintf("job-%08d", n) }

// TestReplayKeepsNewestFinished proves a store that holds more finished jobs
// than the cap loads only the newest of them into the table. Every
// unfinished job is still re-enqueued, every stored result still seeds the
// cache up to the cache's own limit, and new IDs continue past the highest
// one on disk.
func TestReplayKeepsNewestFinished(t *testing.T) {
	const limit = 3
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	// Jobs 1–8: 2 is pending and 7 running; 4 failed; the rest are done,
	// each with its own key and result.
	states := []string{client.StateDone, client.StatePending, client.StateDone, client.StateFailed,
		client.StateDone, client.StateDone, client.StateRunning, client.StateDone}
	keys := make([]string, len(states))
	for i, state := range states {
		req := testPlanBody(i)
		if keys[i], err = Key(req); err != nil {
			t.Fatalf("Key: %v", err)
		}
		j := &client.Job{ID: jobID(i + 1), Kind: client.KindPlan, State: state, Key: keys[i]}
		switch state {
		case client.StateDone:
			j.Result = json.RawMessage(fmt.Sprintf(`{"job":%d}`, i+1))
		case client.StateFailed:
			j.Error = &client.Error{Code: client.CodeInternal, Message: "boom"}
		}
		if err := st.Put(j, req); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	srv, err := newServer(Config{StoreDir: dir}, limit)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer srv.Close()
	srv.mu.Lock()
	var ids []string
	for id := range srv.jobs {
		ids = append(ids, id)
	}
	srv.mu.Unlock()
	slices.Sort(ids)
	if want := []string{jobID(2), jobID(5), jobID(6), jobID(7), jobID(8)}; !slices.Equal(ids, want) {
		t.Errorf("table holds %v, want the unfinished jobs and the newest %d finished %v", ids, limit, want)
	}
	if v := srv.Registry().Counter("service.jobs.resumed").Value(); v != 2 || len(srv.queue) != 2 {
		t.Errorf("resumed %v jobs, %d queued; want both unfinished jobs re-enqueued", v, len(srv.queue))
	}
	for i, state := range states {
		if _, ok := srv.cache.Get(keys[i]); ok != (state == client.StateDone) {
			t.Errorf("job %d (%s): cached = %v", i+1, state, ok)
		}
	}

	// A cache hit on an evicted job's request gets the next ID after the
	// highest on disk and the evicted job's stored result.
	body, err := json.Marshal(testPlanBody(0))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var hit client.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &hit); err != nil {
		t.Fatalf("decode hit: %v: %s", err, rec.Body.Bytes())
	}
	if hit.ID != jobID(len(states)+1) || !hit.CacheHit || string(hit.Result) != `{"job":1}` {
		t.Errorf("post-replay hit = %+v, want %s serving job 1's result", hit, jobID(len(states)+1))
	}

	// A cache smaller than the stored results keeps the newest of them: job
	// 8's, and the hit above, stored as job 9 under job 1's key.
	small, err := newServer(Config{StoreDir: dir, CacheEntries: 2}, limit)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer small.Close()
	for i := range states {
		_, ok := small.cache.Get(keys[i])
		if want := i == 0 || i == 7; ok != want {
			t.Errorf("2-entry cache: job %d cached = %v, want %v", i+1, ok, want)
		}
	}
}
