//go:build !race

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"autopipe/client"
)

// cacheHitAllocs is the allocation count of one cache-hit submit through
// the handler, eviction included, measured with go1.24 on linux/amd64.
// The recorder and request the test builds count too.
const cacheHitAllocs = 28

// TestCacheHitAllocsPinned pins the allocations of the daemon's hot path: a
// waited submit of a body the submit memo holds, whose key is cached, served
// by Handler into a recorder, with the job table full so every request also
// evicts. A reflective JSON pass on the path (decoding the body, marshaling
// the key document, encoding the response) or any other new allocation
// fails it. (The race detector's instrumentation changes allocation counts,
// so -race skips this file.)
func TestCacheHitAllocsPinned(t *testing.T) {
	srv := newServer(Config{}, 8)
	srv.engine = func(context.Context, client.SubmitRequest) (json.RawMessage, error) { return stubResult(), nil }
	srv.Start()
	defer srv.Close()
	body, err := json.Marshal(testPlanBody(0))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	h := srv.Handler()
	hit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	// The first submit runs the engine and fills the cache; the next ones
	// fill the job table up to its cap.
	for i := 0; i < 16; i++ {
		hit()
	}
	n := testing.AllocsPerRun(1000, hit)
	t.Logf("cache hit: %v allocs/op", n)
	if n > cacheHitAllocs {
		t.Errorf("cache hit: %v allocs/op, pinned at %d", n, cacheHitAllocs)
	}
}
