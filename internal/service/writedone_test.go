package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"autopipe"
	"autopipe/client"
)

// oddResult is an indented result document holding the characters
// encoding/json escapes in a RawMessage: <, > and & for HTML, and U+2028.
func oddResult(tag string) json.RawMessage {
	return json.RawMessage("{\n  \"note\": \"<b>" + tag + "</b> & \u2028 done\",\n  \"n\": [\n    1,\n    2\n  ]\n}")
}

// encoderBytes is the oracle: what json.NewEncoder(w).Encode writes for j.
func encoderBytes(t *testing.T, j client.Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(j); err != nil {
		t.Fatalf("encode %+v: %v", j, err)
	}
	return buf.Bytes()
}

// checkDoneResponse decodes a done job from a response, swaps in the result
// the engine or the store produced, and requires the response bytes to
// equal the encoder's for that job, with a matching Content-Length.
func checkDoneResponse(t *testing.T, what string, header http.Header, body []byte, result json.RawMessage) client.Job {
	t.Helper()
	var job client.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("%s: undecodable response %s: %v", what, body, err)
	}
	if job.State != client.StateDone {
		t.Fatalf("%s: state %q, want done: %s", what, job.State, body)
	}
	want := job
	want.Result = result
	if exp := encoderBytes(t, want); !bytes.Equal(body, exp) {
		t.Errorf("%s: response bytes differ from the encoder's\ngot  %q\nwant %q", what, body, exp)
	}
	if got := header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", what, got, len(body))
	}
	if got := header.Get("Content-Type"); got != "application/json" {
		t.Errorf("%s: Content-Type %q", what, got)
	}
	return job
}

// TestWriteDoneMatchesEncoder holds writeDone to the encoder byte for byte
// over every kind, every cacheHit/shared combination, an omitted key and
// result, and strings that need escaping. The client's
// TestDoneDocumentRoundTrip and TestDaemonDoneDocumentsParseDirectly hold
// the same shapes, and this file's handler and store-replay ones, to the
// client's direct parse.
func TestWriteDoneMatchesEncoder(t *testing.T) {
	cache := newPlanCache(0)
	raw := oddResult("x")
	stored, err := cache.Put("k", raw)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, kind := range []string{client.KindPlan, client.KindSimulate, client.KindSlice} {
		for _, hit := range []bool{false, true} {
			for _, shared := range []bool{false, true} {
				for _, v := range []struct{ id, key string }{
					{"job-00000001", "sha256:0123abcd"},
					{"job-00000002", ""},
					{"job-<3>&\"\\\u2028\x01é", "k\ttab"},
				} {
					j := client.Job{ID: v.id, Kind: kind, State: client.StateDone, Key: v.key, CacheHit: hit, Shared: shared}
					for _, res := range []struct{ stored, orig json.RawMessage }{{stored, raw}, {nil, nil}} {
						j.Result = res.stored
						rec := httptest.NewRecorder()
						writeDone(rec, http.StatusOK, j)
						j.Result = res.orig
						if want := encoderBytes(t, j); !bytes.Equal(rec.Body.Bytes(), want) {
							t.Errorf("%+v:\ngot  %q\nwant %q", j, rec.Body.Bytes(), want)
						}
						if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
							t.Errorf("%+v: Content-Length %q for %d bytes", j, got, rec.Body.Len())
						}
					}
				}
			}
		}
	}
}

// TestDoneResponsesMatchEncoder drives the handler: an engine that answers
// every kind with an indented, escape-worthy result, then every way a done
// job is answered — the waited miss, shared and hit submits, an unwaited
// hit, GET and GET ?wait=1. Each response equals the encoder's bytes for
// the job with the engine's own result.
func TestDoneResponsesMatchEncoder(t *testing.T) {
	// Plan searches other than testPlanBody(0)'s hand the test a channel
	// and wait for it to close.
	held := make(chan chan struct{})
	srv, hs := newTestServer(t, Config{}, func(_ context.Context, req client.SubmitRequest) (json.RawMessage, error) {
		if req.Kind == client.KindPlan && req.Plan.Run.GlobalBatch != testPlanBody(0).Plan.Run.GlobalBatch {
			release := make(chan struct{})
			held <- release
			<-release
		}
		return oddResult(req.Kind), nil
	})
	get := func(path string) (http.Header, []byte) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		return resp.Header, buf.Bytes()
	}
	profile := &autopipe.StageProfile{Fwd: []float64{1, 2}, Bwd: []float64{2, 4}, Comm: 0.1, Micro: 4}
	for _, req := range []client.SubmitRequest{
		testPlanBody(0),
		{Kind: client.KindSimulate, Profile: profile},
		{Kind: client.KindSlice, Profile: profile},
	} {
		result := oddResult(req.Kind)
		resp, data := submit(t, hs.URL, req, true)
		miss := checkDoneResponse(t, req.Kind+" miss", resp.Header, data, result)
		resp, data = submit(t, hs.URL, req, true)
		if hit := checkDoneResponse(t, req.Kind+" hit", resp.Header, data, result); !hit.CacheHit {
			t.Errorf("%s: resubmit was not a cache hit", req.Kind)
		}
		resp, data = submit(t, hs.URL, req, false)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: unwaited hit answered %d", req.Kind, resp.StatusCode)
		}
		checkDoneResponse(t, req.Kind+" unwaited hit", resp.Header, data, result)
		header, data := get("/v1/jobs/" + miss.ID)
		checkDoneResponse(t, req.Kind+" GET", header, data, result)
		header, data = get("/v1/jobs/" + miss.ID + "?wait=1")
		checkDoneResponse(t, req.Kind+" GET ?wait=1", header, data, result)
	}

	// Two identical submits while the engine holds their search: one
	// searches, the other shares it. The second must reach the held search
	// before it is released; in the rare run where it has not, try again
	// with a fresh configuration.
	type answer struct {
		header http.Header
		data   []byte
		err    error
	}
	shared := 0
	for seed := 1; seed <= 5 && shared == 0; seed++ {
		answers := make(chan answer, 2)
		for i := 0; i < 2; i++ {
			go func() {
				resp, data, err := trySubmit(testPlanBody(seed), hs.URL, true)
				if err != nil {
					answers <- answer{err: err}
					return
				}
				answers <- answer{header: resp.Header, data: data}
			}()
		}
		release := <-held
		waitRunning(t, srv, 2)
		time.Sleep(20 * time.Millisecond) // from running to waiting on the search
		close(release)
		for i := 0; i < 2; i++ {
			a := <-answers
			if a.err != nil {
				t.Fatalf("coalesced submit: %v", a.err)
			}
			if checkDoneResponse(t, "coalesced submit", a.header, a.data, oddResult(client.KindPlan)).Shared {
				shared++
			}
		}
	}
	if shared != 1 {
		t.Errorf("%d coalesced submits shared a search, want 1", shared)
	}
}

// waitRunning waits until n jobs in srv's table are running.
func waitRunning(t *testing.T, srv *Server, n int) {
	t.Helper()
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		running := 0
		srv.mu.Lock()
		for _, j := range srv.jobs {
			if j.snapshot().State == client.StateRunning {
				running++
			}
		}
		srv.mu.Unlock()
		if running >= n {
			return
		}
	}
	t.Fatalf("fewer than %d jobs running after 10s", n)
}
