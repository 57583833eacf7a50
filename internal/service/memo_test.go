package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"autopipe/client"
	"autopipe/internal/errdefs"
)

// decodeSubmit is the submit handler's request pipeline without the memo:
// decode the body straight from the size-capped request reader, validate,
// parse the deadline header, key. The memo must answer every body exactly
// as this does.
func decodeSubmit(w http.ResponseWriter, r *http.Request) (string, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req client.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return "", fmt.Errorf("%w: service: malformed submit request: %v", errdefs.ErrBadConfig, err)
	}
	if err := req.Validate(); err != nil {
		return "", err
	}
	if _, err := parseDeadline(r.Header.Get(client.DeadlineHeader)); err != nil {
		return "", err
	}
	return Key(req)
}

// TestSubmitMatchesDecodePath posts accepted and rejected bodies twice each
// to one daemon and checks every answer against decodeSubmit: the same
// rejection envelope, or the same key. The second post of an accepted body
// is answered from the memo; rejected bodies are never memoized.
func TestSubmitMatchesDecodePath(t *testing.T) {
	valid, err := json.Marshal(testPlanBody(0))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// The same request with other whitespace: other bytes, the same key.
	spaced := bytes.ReplaceAll(valid, []byte(`,"`), []byte(`, "`))
	oversize := []byte(`{"kind":"plan","pad":"` + strings.Repeat("a", maxBodyBytes) + `"}`)
	cases := []struct {
		name     string
		body     []byte
		deadline string
		accepted bool
	}{
		{name: "valid", body: valid, accepted: true},
		{name: "valid respaced", body: spaced, accepted: true},
		{name: "valid then a second value", body: append(append([]byte{}, valid...), `{"kind":"slice"}`...), accepted: true},
		{name: "valid with deadline", body: valid, deadline: "60000", accepted: true},
		{name: "malformed", body: []byte(`{"kind": "plan",`)},
		{name: "empty", body: nil},
		{name: "unknown field", body: []byte(`{"kind": "plan", "bogus": 1}`)},
		{name: "unknown kind", body: []byte(`{"kind": "transmogrify"}`)},
		{name: "invalid config", body: []byte(`{"kind":"plan","plan":{"budget":-1}}`)},
		{name: "oversize", body: oversize},
		{name: "malformed deadline", body: valid, deadline: "banana"},
		{name: "overflowing deadline", body: valid, deadline: "9300000000000"},
		{name: "max int64 deadline", body: valid, deadline: "9223372036854775807"},
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	h := srv.Handler()
	newReq := func(body []byte, deadline string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if deadline != "" {
			r.Header.Set(client.DeadlineHeader, deadline)
		}
		return r
	}
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			wantKey, wantErr := decodeSubmit(httptest.NewRecorder(), newReq(tc.body, tc.deadline))
			if (wantErr == nil) != tc.accepted {
				t.Fatalf("%s: decode path says err=%v, case says accepted=%v", tc.name, wantErr, tc.accepted)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, newReq(tc.body, tc.deadline))
			if wantErr != nil {
				wireErr, status := client.Encode(wantErr)
				want, err := json.Marshal(struct {
					Error *client.Error `json:"error"`
				}{wireErr})
				if err != nil {
					t.Fatal(err)
				}
				if rec.Code != status || !bytes.Equal(bytes.TrimSpace(rec.Body.Bytes()), want) {
					t.Errorf("round %d, %s: answered %d %s, want %d %s", round, tc.name, rec.Code, rec.Body.Bytes(), status, want)
				}
				continue
			}
			var job client.Job
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || rec.Code != http.StatusAccepted {
				t.Fatalf("round %d, %s: answered %d %s, want 202", round, tc.name, rec.Code, rec.Body.Bytes())
			}
			if job.Key != wantKey {
				t.Errorf("round %d, %s: key %s, want %s", round, tc.name, job.Key, wantKey)
			}
		}
	}
	// One entry per distinct accepted body: valid (with and without a
	// deadline), respaced, and the two-value body.
	if n := srv.memo.Len(); n != 3 {
		t.Errorf("memo holds %d bodies, want 3", n)
	}
}

// TestMemoBoundedByCacheEntries proves the memo evicts oldest-first at the
// plan cache's capacity, and an evicted body is decoded afresh to the same
// key.
func TestMemoBoundedByCacheEntries(t *testing.T) {
	var searches atomic.Int64
	srv, hs := newTestServer(t, Config{CacheEntries: 2}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		searches.Add(1)
		return stubResult(), nil
	})
	keys := make([]string, 3)
	for round := 0; round < 2; round++ {
		for i := range keys {
			resp, data := submit(t, hs.URL, testPlanBody(i), true)
			var job client.Job
			if err := json.Unmarshal(data, &job); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
			}
			if round == 0 {
				keys[i] = job.Key
			} else if job.Key != keys[i] {
				t.Errorf("resubmit %d: key %s, want %s", i, job.Key, keys[i])
			}
		}
	}
	if n := srv.memo.Len(); n != 2 {
		t.Errorf("memo holds %d bodies, want its capacity 2", n)
	}
	// Capacity 2 over three keys cycled in order evicts each result before
	// it is asked for again.
	if n := searches.Load(); n != 6 {
		t.Errorf("engine ran %d times, want 6", n)
	}
}
