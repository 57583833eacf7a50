package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"autopipe/client"
)

// TestTokenBucketConcurrentTake hammers the admission-control bucket from
// competing goroutines and checks conservation: with accrual frozen (a fixed
// injected clock), the number of admitted requests can never exceed the
// burst capacity, however the takes interleave. Run under -race (make
// race-wide, CI race-matrix) this doubles as the data-race check on the
// bucket's mutex discipline.
func TestTokenBucketConcurrentTake(t *testing.T) {
	b := newTokenBucket(100, 32)
	frozen := time.Now()
	b.now = func() time.Time { return frozen }
	b.last = frozen // no accrual between construction and the frozen clock

	const workers = 16
	const attempts = 50
	var wg sync.WaitGroup
	admitted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if ok, wait := b.take(); ok {
					admitted[w]++
				} else if wait <= 0 {
					t.Errorf("rejected take returned non-positive wait %v", wait)
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for _, n := range admitted {
		total += n
	}
	if total != 32 {
		t.Fatalf("admitted %d requests from a frozen 32-token bucket, want exactly 32", total)
	}
}

// TestConcurrentSubmitMemo posts identical, distinct and invalid bodies from
// competing goroutines into a daemon whose cache and memo hold two entries,
// so lookups, inserts and evictions interleave. Every identical body gets
// the same key, every distinct body its own, and every invalid body a 400.
// Run under -race (make race-wide, CI race-matrix) it is the data-race check
// on the memo and the byte-written responses.
func TestConcurrentSubmitMemo(t *testing.T) {
	srv, err := New(Config{CacheEntries: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.engine = func(context.Context, client.SubmitRequest) (json.RawMessage, error) { return stubResult(), nil }
	srv.Start()
	defer srv.Close()
	h := srv.Handler()

	const workers = 8
	const rounds = 25
	bodies := make([][]byte, workers+1) // bodies[0] is shared; bodies[w+1] is worker w's own
	for i := range bodies {
		b, err := json.Marshal(testPlanBody(i))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		bodies[i] = b
	}
	invalid := [][]byte{[]byte(`{"kind":"transmogrify"}`), []byte(`{"kind":"plan","bogus":1}`), []byte(`{"kind":`)}

	keys := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			post := func(body []byte) (int, client.Job) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
				var job client.Job
				if rec.Code == http.StatusOK {
					if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
						t.Errorf("undecodable job %s: %v", rec.Body.Bytes(), err)
					}
				}
				return rec.Code, job
			}
			for i := 0; i < rounds; i++ {
				for b, body := range [][]byte{bodies[0], bodies[w+1], invalid[(w+i)%len(invalid)]} {
					code, job := post(body)
					switch {
					case b == 2 && code != http.StatusBadRequest:
						t.Errorf("invalid body %s answered %d, want 400", body, code)
					case b < 2 && code != http.StatusOK:
						t.Errorf("valid body answered %d, want 200", code)
					case b < 2:
						keys[w] = append(keys[w], job.Key)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := make([]string, len(bodies))
	for i := range bodies {
		var req client.SubmitRequest
		if err := json.Unmarshal(bodies[i], &req); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if want[i], err = Key(req); err != nil {
			t.Fatalf("Key: %v", err)
		}
	}
	// Each worker's keys alternate: the shared body's, then its own body's.
	for w, ks := range keys {
		for i, k := range ks {
			if exp := want[(i%2)*(w+1)]; k != exp {
				t.Fatalf("worker %d, post %d: key %s, want %s", w, i, k, exp)
			}
		}
	}
}
