package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/errdefs"
)

// testPlanBody returns a valid submit request body for a plan job; vary seed
// to get distinct cache keys.
func testPlanBody(seed int) client.SubmitRequest {
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	return client.SubmitRequest{
		Kind: client.KindPlan,
		Plan: &client.PlanPayload{
			Model:   autopipe.GPT2_345M(),
			Run:     autopipe.Run{MicroBatch: 4, GlobalBatch: 128 + 128*seed, Checkpoint: true},
			Cluster: cluster,
		},
	}
}

// newTestServer builds a started server with the given config and an engine
// stub, mounted on an httptest server. The stub result is a fixed document so
// tests exercise the service machinery, not the search.
func newTestServer(t *testing.T, cfg Config, engine func(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error)) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if engine != nil {
		srv.engine = engine
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func stubResult() json.RawMessage { return json.RawMessage(`{"spec":null}`) }

func submit(t *testing.T, base string, req client.SubmitRequest, wait bool) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return post(t, base, body, wait)
}

func post(t *testing.T, base string, body []byte, wait bool) (*http.Response, []byte) {
	t.Helper()
	resp, data, err := tryPost(base, body, wait)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp, data
}

// tryPost is the goroutine-safe variant: it reports transport failures as an
// error instead of calling into testing.T.
func tryPost(base string, body []byte, wait bool) (*http.Response, []byte, error) {
	url := base + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, data, nil
}

func trySubmit(req client.SubmitRequest, base string, wait bool) (*http.Response, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	return tryPost(base, body, wait)
}

// decodeWireError pulls the typed error out of an error envelope.
func decodeWireError(t *testing.T, data []byte) *client.Error {
	t.Helper()
	var doc struct {
		Error *client.Error `json:"error"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Error == nil {
		t.Fatalf("response is not an error envelope: %s", data)
	}
	return doc.Error
}

// TestWireErrorContract proves the sentinel → status → code → sentinel
// round-trip for every mapped failure class: the daemon assigns the contract
// status, and the decoded wire error is errors.Is-compatible with the
// original sentinel.
func TestWireErrorContract(t *testing.T) {
	cases := []struct {
		name       string
		engineErr  error // when set, the engine fails with it
		body       []byte
		wantStatus int
		wantCode   string
		wantIs     error
	}{
		{
			name:       "malformed json",
			body:       []byte(`{"kind": "plan",`),
			wantStatus: http.StatusBadRequest,
			wantCode:   client.CodeBadConfig,
			wantIs:     autopipe.ErrBadConfig,
		},
		{
			name:       "unknown field",
			body:       []byte(`{"kind": "plan", "bogus": 1}`),
			wantStatus: http.StatusBadRequest,
			wantCode:   client.CodeBadConfig,
			wantIs:     autopipe.ErrBadConfig,
		},
		{
			name:       "unknown kind",
			body:       []byte(`{"kind": "transmogrify"}`),
			wantStatus: http.StatusBadRequest,
			wantCode:   client.CodeBadConfig,
			wantIs:     autopipe.ErrBadConfig,
		},
		{
			name:       "plan without payload",
			body:       []byte(`{"kind": "plan"}`),
			wantStatus: http.StatusBadRequest,
			wantCode:   client.CodeBadConfig,
			wantIs:     autopipe.ErrBadConfig,
		},
		{
			name:       "engine bad config",
			engineErr:  fmt.Errorf("%w: micro-batch must divide global batch", errdefs.ErrBadConfig),
			wantStatus: http.StatusBadRequest,
			wantCode:   client.CodeBadConfig,
			wantIs:     autopipe.ErrBadConfig,
		},
		{
			name:       "engine infeasible",
			engineErr:  fmt.Errorf("%w: no pipeline depth fits device memory", errdefs.ErrInfeasible),
			wantStatus: http.StatusUnprocessableEntity,
			wantCode:   client.CodeInfeasible,
			wantIs:     autopipe.ErrInfeasible,
		},
		{
			name:       "engine oom",
			engineErr:  fmt.Errorf("%w: stage 3 exceeds device memory", errdefs.ErrOOM),
			wantStatus: http.StatusUnprocessableEntity,
			wantCode:   client.CodeOOM,
			wantIs:     autopipe.ErrOOM,
		},
		{
			name:       "engine internal",
			engineErr:  errors.New("the planner tripped over its own feet"),
			wantStatus: http.StatusInternalServerError,
			wantCode:   client.CodeInternal,
			wantIs:     autopipe.ErrInternal,
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engineErr := tc.engineErr
			_, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
				if engineErr != nil {
					return nil, engineErr
				}
				return stubResult(), nil
			})
			body := tc.body
			if body == nil {
				var err error
				body, err = json.Marshal(testPlanBody(i))
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
			}
			resp, data := post(t, hs.URL, body, true)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, data)
			}
			we := decodeWireError(t, data)
			if we.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", we.Code, tc.wantCode)
			}
			if !errors.Is(we, tc.wantIs) {
				t.Errorf("decoded error %v is not errors.Is(%v)", we, tc.wantIs)
			}
		})
	}
}

// TestJobNotFound proves unknown job IDs map to 404 not_found.
func TestJobNotFound(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil)
	resp, err := http.Get(hs.URL + "/v1/jobs/job-99999999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	we := decodeWireError(t, data)
	if we.Code != client.CodeNotFound {
		t.Errorf("code = %q, want %q", we.Code, client.CodeNotFound)
	}
	if !errors.Is(we, client.ErrNotFound) {
		t.Errorf("decoded error is not ErrNotFound")
	}
}

// TestOversizedSubmitRejected posts the checked-in oversized submit bodies —
// a simulate profile with 2^61 micro-batches and a plan run with a 2^60
// global batch at micro-batch 1 — to a daemon running the real engine. Both
// would panic inside the simulator on a queue worker and take the process
// down; validation must answer 400 ErrBadConfig at submit instead, and the
// daemon must go on serving the next request.
func TestOversizedSubmitRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{}, nil) // nil = real engine
	for _, name := range []string{"submit_sim_huge_micro.json", "submit_plan_huge_batch.json"} {
		body, err := os.ReadFile(filepath.Join("..", "..", "testdata", "reject", name))
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, hs.URL, body, true)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
		if we := decodeWireError(t, data); !errors.Is(we, errdefs.ErrBadConfig) {
			t.Errorf("%s: decoded error %v, want ErrBadConfig", name, we)
		}
	}
	resp, data := submit(t, hs.URL, client.SubmitRequest{Kind: client.KindSimulate,
		Profile: &autopipe.StageProfile{Fwd: []float64{1, 2}, Bwd: []float64{2, 4}, Comm: 0.1, Micro: 4}}, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d, want 200: %s", resp.StatusCode, data)
	}
	var job client.Job
	if err := json.Unmarshal(data, &job); err != nil || job.State != client.StateDone {
		t.Fatalf("next request: job %s (%v), want done", data, err)
	}
}

// TestCacheHitOnResubmit is the acceptance check: two back-to-back identical
// plan requests cost exactly one engine search, the cached answer is the
// computed one byte for byte, and the daemon's counters say so.
func TestCacheHitOnResubmit(t *testing.T) {
	var searches atomic.Int64
	srv, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		// Each search answers differently, so a cache hit can only echo the
		// first search's bytes.
		return json.RawMessage(fmt.Sprintf(`{"search":%d}`, searches.Add(1))), nil
	})

	resp, data := submit(t, hs.URL, testPlanBody(0), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	var first client.Job
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatalf("decode first job: %v", err)
	}
	if first.CacheHit {
		t.Fatalf("first submit was a cache hit")
	}

	resp, data = submit(t, hs.URL, testPlanBody(0), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second submit: status %d: %s", resp.StatusCode, data)
	}
	var second client.Job
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatalf("decode second job: %v", err)
	}
	if !second.CacheHit {
		t.Fatalf("identical resubmit was not a cache hit: %+v", second)
	}
	if second.Key != first.Key {
		t.Errorf("identical requests got different keys: %q vs %q", first.Key, second.Key)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Errorf("cached result differs from computed result:\ncached   %s\ncomputed %s", second.Result, first.Result)
	}
	if n := searches.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
	if hits := srv.Registry().Counter("service.cache.hits").Value(); hits != 1 {
		t.Errorf("service.cache.hits = %v, want 1", hits)
	}
	if n := srv.Registry().Counter("service.engine.searches").Value(); n != 1 {
		t.Errorf("service.engine.searches = %v, want 1", n)
	}

	// A different configuration must miss.
	resp, data = submit(t, hs.URL, testPlanBody(1), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("third submit: status %d: %s", resp.StatusCode, data)
	}
	if n := searches.Load(); n != 2 {
		t.Errorf("engine ran %d times after a distinct request, want 2", n)
	}
}

// TestSingleflightDedup proves N concurrent identical requests coalesce into
// one engine search: the first caller runs it, in-flight duplicates share,
// later ones hit the cache.
func TestSingleflightDedup(t *testing.T) {
	const n = 8
	var searches atomic.Int64
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	_, hs := newTestServer(t, Config{Workers: 4}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		searches.Add(1)
		entered <- struct{}{}
		<-release
		return stubResult(), nil
	})

	type outcome struct {
		job  client.Job
		code int
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, data, err := trySubmit(testPlanBody(0), hs.URL, true)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			var j client.Job
			_ = json.Unmarshal(data, &j)
			results <- outcome{job: j, code: resp.StatusCode}
		}()
	}

	// Exactly one request reaches the engine; everyone else coalesces.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no request reached the engine")
	}
	select {
	case <-entered:
		t.Fatal("a second identical search reached the engine")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	var shared, hits int
	for i := 0; i < n; i++ {
		out := <-results
		if out.err != nil {
			t.Fatalf("request %d: %v", i, out.err)
		}
		if out.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, out.code)
		}
		if out.job.Shared {
			shared++
		}
		if out.job.CacheHit {
			hits++
		}
	}
	if got := searches.Load(); got != 1 {
		t.Errorf("engine ran %d times for %d identical concurrent requests, want 1", got, n)
	}
	if shared+hits == 0 {
		t.Errorf("no request was deduplicated (shared %d, cache hits %d)", shared, hits)
	}
}

// TestQueueFull proves an overloaded daemon rejects with 503 unavailable —
// the one code the client retries.
func TestQueueFull(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		entered <- struct{}{}
		<-release
		return stubResult(), nil
	})
	defer close(release)

	// First job occupies the only worker.
	go func() { _, _, _ = trySubmit(testPlanBody(0), hs.URL, true) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never reached the engine")
	}
	// Second job fills the 1-deep queue.
	resp, data := submit(t, hs.URL, testPlanBody(1), false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", resp.StatusCode, data)
	}
	// Third is rejected.
	resp, data = submit(t, hs.URL, testPlanBody(2), false)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third submit: status %d, want 503: %s", resp.StatusCode, data)
	}
	we := decodeWireError(t, data)
	if we.Code != client.CodeUnavailable {
		t.Errorf("code = %q, want %q", we.Code, client.CodeUnavailable)
	}
	if !errors.Is(we, client.ErrUnavailable) {
		t.Errorf("decoded error is not ErrUnavailable")
	}
}

// TestCloseReleasesInterruptedWaiter proves a waiter whose search Close
// interrupts is answered 503 unavailable, the code the retrying client
// resubmits, instead of blocking until its own deadline.
func TestCloseReleasesInterruptedWaiter(t *testing.T) {
	entered := make(chan struct{}, 1)
	srv, hs := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, _ client.SubmitRequest) (json.RawMessage, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	body, err := json.Marshal(testPlanBody(0))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// The waiter gives up on its own after 5 s, so a stranded one fails the
	// test instead of hanging the server's cleanup.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	type answer struct {
		status int
		data   []byte
		err    error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, data, err}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the job never reached the engine")
	}
	srv.Close()
	a := <-answered
	if a.err != nil {
		t.Fatalf("waiter whose search Close interrupted: %v", a.err)
	}
	if a.status != http.StatusServiceUnavailable {
		t.Fatalf("waiter status %d, want 503: %s", a.status, a.data)
	}
	if we := decodeWireError(t, a.data); we.Code != client.CodeUnavailable {
		t.Errorf("code = %q, want %q", we.Code, client.CodeUnavailable)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for id, j := range srv.jobs {
		if state := j.snapshot().State; state != client.StateFailed {
			t.Errorf("%s is %s after Close, want failed", id, state)
		}
	}
}

// TestCloseFailsQueuedJobs proves Close answers every job still in the
// queue, not only the one whose search it interrupts: one worker is held in
// the engine, eight distinct jobs wait in the queue with a ?wait=1 waiter
// each, and every waiter must hear 503 unavailable within 2 s of Close.
func TestCloseFailsQueuedJobs(t *testing.T) {
	entered := make(chan struct{}, 16)
	srv, hs := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, _ client.SubmitRequest) (json.RawMessage, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	type answer struct {
		status int
		data   []byte
		err    error
	}
	const queued = 8
	answers := make(chan answer, queued+1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := func(seed int) {
		body, err := json.Marshal(testPlanBody(seed))
		if err != nil {
			answers <- answer{err: err}
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
		if err != nil {
			answers <- answer{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			answers <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		answers <- answer{resp.StatusCode, data, err}
	}
	go wait(0)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first job never reached the engine")
	}
	for i := 1; i <= queued; i++ {
		go wait(i)
	}
	for deadline := time.Now().Add(10 * time.Second); len(srv.queue) < queued; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs queued", len(srv.queue), queued)
		}
	}
	srv.Close()
	timeout := time.After(2 * time.Second)
	for i := 0; i <= queued; i++ {
		select {
		case a := <-answers:
			if a.err != nil {
				t.Fatalf("waiter: %v", a.err)
			}
			if a.status != http.StatusServiceUnavailable {
				t.Fatalf("waiter status %d, want 503: %s", a.status, a.data)
			}
			if we := decodeWireError(t, a.data); we.Code != client.CodeUnavailable {
				t.Errorf("code = %q, want %q", we.Code, client.CodeUnavailable)
			}
		case <-timeout:
			t.Fatalf("%d of %d waiters answered within 2 s of Close", i, queued+1)
		}
	}
}

// TestEnqueueAfterCloseFailsJob covers a submit that passed the closed
// check before Close and enqueues after Close's drain: its job must fail
// 503 unavailable at once rather than wait in a queue no worker reads.
func TestEnqueueAfterCloseFailsJob(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1}, nil)
	srv.Close()
	j := &job{wire: client.Job{ID: "job-00000001", State: client.StatePending}, done: make(chan struct{})}
	if !srv.enqueue(context.Background(), j) {
		t.Fatal("enqueue refused a job with the queue empty")
	}
	select {
	case <-j.done:
	default:
		t.Fatal("a job enqueued after Close is still pending")
	}
	if snap := j.snapshot(); snap.State != client.StateFailed || snap.Error == nil || snap.Error.Code != client.CodeUnavailable {
		t.Errorf("job after Close: state %s, error %v; want failed with %q", snap.State, snap.Error, client.CodeUnavailable)
	}
}

// TestJobTerminalOnce checks that a job turns terminal once: a second
// finish or failJob leaves the first outcome and does not close done again.
func TestJobTerminalOnce(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1}, nil)
	j := &job{wire: client.Job{ID: "job-00000001", State: client.StatePending}, done: make(chan struct{})}
	srv.failJob(j, fmt.Errorf("service: shut down before the job ran: %w", client.ErrUnavailable))
	srv.finish(j, stubResult(), false, false)
	srv.failJob(j, fmt.Errorf("second failure: %w", errdefs.ErrInternal))
	if snap := j.snapshot(); snap.State != client.StateFailed || snap.Error == nil || snap.Error.Code != client.CodeUnavailable || snap.Result != nil {
		t.Errorf("job after three outcomes: %+v, want the first (failed, %q)", snap, client.CodeUnavailable)
	}
	if n := srv.reg.Snapshot().Counters["service.jobs.failed"]; n != 1 {
		t.Errorf("service.jobs.failed = %g, want 1", n)
	}
}

// submitWithDeadline posts a job with the client deadline header set.
func submitWithDeadline(t *testing.T, base string, req client.SubmitRequest, deadlineMs string, wait bool) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	url := base + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(client.DeadlineHeader, deadlineMs)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestRateLimitAdmission proves the token bucket rejects excess submissions
// with 429 rate_limited plus a Retry-After naming when the next token
// accrues, and admits again once it does. The bucket clock is stubbed so the
// refill schedule is deterministic.
func TestRateLimitAdmission(t *testing.T) {
	var offsetMs atomic.Int64
	srv, hs := newTestServer(t, Config{RateLimit: 1, RateBurst: 1}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		return stubResult(), nil
	})
	base := time.Now()
	srv.limiter.mu.Lock()
	srv.limiter.last = base
	srv.limiter.tokens = 1
	srv.limiter.now = func() time.Time { return base.Add(time.Duration(offsetMs.Load()) * time.Millisecond) }
	srv.limiter.mu.Unlock()

	// The only token admits the first submission.
	resp, data := submit(t, hs.URL, testPlanBody(0), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	// Same instant, empty bucket: 429 with Retry-After 1 (one token/sec).
	resp, data = submit(t, hs.URL, testPlanBody(1), false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit: status %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	we := decodeWireError(t, data)
	if we.Code != client.CodeRateLimited {
		t.Errorf("code = %q, want %q", we.Code, client.CodeRateLimited)
	}
	if !errors.Is(we, client.ErrRateLimited) {
		t.Errorf("decoded error is not ErrRateLimited")
	}
	if v := srv.Registry().Counter("service.admission.ratelimited").Value(); v != 1 {
		t.Errorf("service.admission.ratelimited = %v, want 1", v)
	}
	// 1.5 simulated seconds later a token has accrued: admitted again.
	offsetMs.Store(1500)
	resp, data = submit(t, hs.URL, testPlanBody(1), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill submit: status %d: %s", resp.StatusCode, data)
	}
}

// TestQueueFullShedsWithRetryAfter proves the overload path end to end: a
// shed submission gets 503 + Retry-After derived from queue depth, the shed
// job vanishes from the job table, and the shed/admitted counters surface
// on /metrics.
func TestQueueFullShedsWithRetryAfter(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		entered <- struct{}{}
		<-release
		return stubResult(), nil
	})
	defer close(release)

	// Occupy the worker, then fill the 1-deep queue.
	if resp, data := submit(t, hs.URL, testPlanBody(0), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never reached the engine")
	}
	if resp, data := submit(t, hs.URL, testPlanBody(1), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", resp.StatusCode, data)
	}

	// Third sheds: QueueWait is 0, so immediately, with Retry-After =
	// (depth 1 + workers 1) / workers 1 = 2 seconds of drain estimate.
	resp, data := submit(t, hs.URL, testPlanBody(2), false)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: status %d, want 503: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if !errors.Is(decodeWireError(t, data), client.ErrUnavailable) {
		t.Errorf("shed error is not ErrUnavailable")
	}

	// The shed job must not linger: not fetchable, not listed.
	if resp, _ := http.Get(hs.URL + "/v1/jobs/job-00000003"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("shed job still fetchable: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	lresp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	ldata, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if strings.Contains(string(ldata), "job-00000003") {
		t.Errorf("shed job still listed: %s", ldata)
	}

	if v := srv.Registry().Counter("service.admission.shed").Value(); v != 1 {
		t.Errorf("service.admission.shed = %v, want 1", v)
	}
	if v := srv.Registry().Counter("service.admission.admitted").Value(); v != 2 {
		t.Errorf("service.admission.admitted = %v, want 2", v)
	}

	// The counters surface on the exposition endpoint.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"service_admission_shed_total 1", "service_admission_admitted_total 2", "service_queue_depth"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
}

// TestQueueWaitAdmitsWhenSlotFrees proves a QueueWait-configured daemon holds
// a submission at the door instead of shedding instantly, and admits it the
// moment the queue drains.
func TestQueueWaitAdmitsWhenSlotFrees(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1, QueueWait: 30 * time.Second}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		entered <- struct{}{}
		<-release
		return stubResult(), nil
	})

	if resp, data := submit(t, hs.URL, testPlanBody(0), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never reached the engine")
	}
	if resp, data := submit(t, hs.URL, testPlanBody(1), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", resp.StatusCode, data)
	}

	// The third submission blocks in admission; freeing the engine lets the
	// worker drain the queue, which admits it within the QueueWait budget.
	type result struct {
		code int
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, _, err := trySubmit(testPlanBody(2), hs.URL, false)
		if err != nil {
			got <- result{err: err}
			return
		}
		got <- result{code: resp.StatusCode}
	}()
	select {
	case r := <-got:
		t.Fatalf("queued submission returned early: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("queued submission: %v", r.err)
		}
		// 202 if the snapshot catches it pending, 200 if the freed worker
		// already finished it — both mean admitted, not shed.
		if r.code != http.StatusAccepted && r.code != http.StatusOK {
			t.Fatalf("queued submission: status %d, want 202 or 200", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued submission never admitted")
	}
	if v := srv.Registry().Counter("service.admission.shed").Value(); v != 0 {
		t.Errorf("service.admission.shed = %v, want 0", v)
	}
}

// TestDrainingRetryAfter proves a draining daemon's 503 carries Retry-After
// so clients back off toward its replacement.
func TestDrainingRetryAfter(t *testing.T) {
	srv, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		return stubResult(), nil
	})
	srv.mu.Lock()
	srv.closed = true
	srv.mu.Unlock()
	resp, data := submit(t, hs.URL, testPlanBody(0), false)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	srv.mu.Lock()
	srv.closed = false
	srv.mu.Unlock()
}

// TestDeadlinePropagation pins the deadline header contract: malformed
// values reject with 400 before a job exists, a deadline that lapses while
// the job queues fails typed as 504 without running the engine, and a live
// deadline bounds the engine context.
func TestDeadlinePropagation(t *testing.T) {
	t.Run("malformed", func(t *testing.T) {
		_, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
			return stubResult(), nil
		})
		for _, bad := range []string{"banana", "-5", "0", "1.5"} {
			resp, data := submitWithDeadline(t, hs.URL, testPlanBody(0), bad, false)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("deadline %q: status %d, want 400: %s", bad, resp.StatusCode, data)
				continue
			}
			if we := decodeWireError(t, data); !errors.Is(we, autopipe.ErrBadConfig) {
				t.Errorf("deadline %q: error %v is not ErrBadConfig", bad, we)
			}
		}
	})

	// A header whose duration overflows time.Duration used to wrap to a
	// deadline in the past, failing a cache miss 504 deadline_exceeded.
	t.Run("overflow", func(t *testing.T) {
		var engineRuns atomic.Int64
		_, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
			engineRuns.Add(1)
			return stubResult(), nil
		})
		for _, bad := range []string{"9300000000000", "9223372036854775807"} {
			resp, data := submitWithDeadline(t, hs.URL, testPlanBody(0), bad, true)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("deadline %q: status %d, want 400: %s", bad, resp.StatusCode, data)
				continue
			}
			if we := decodeWireError(t, data); we.Code != client.CodeBadConfig {
				t.Errorf("deadline %q: code %q, want %q", bad, we.Code, client.CodeBadConfig)
			}
		}
		if n := engineRuns.Load(); n != 0 {
			t.Errorf("engine ran %d times for rejected deadlines, want 0", n)
		}
		// The largest representable deadline is still accepted.
		resp, data := submitWithDeadline(t, hs.URL, testPlanBody(0), strconv.FormatInt(maxDeadlineMs, 10), true)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("deadline %d: status %d, want 200: %s", maxDeadlineMs, resp.StatusCode, data)
		}
	})

	t.Run("lapses in queue", func(t *testing.T) {
		entered := make(chan struct{}, 4)
		release := make(chan struct{})
		var engineRuns atomic.Int64
		srv, hs := newTestServer(t, Config{Workers: 1}, func(_ context.Context, req client.SubmitRequest) (json.RawMessage, error) {
			if req.Plan.Run.GlobalBatch == testPlanBody(0).Plan.Run.GlobalBatch {
				entered <- struct{}{}
				<-release
			} else {
				engineRuns.Add(1)
			}
			return stubResult(), nil
		})

		// Occupy the only worker, then queue a job whose 1ms budget lapses
		// while it waits.
		if resp, data := submit(t, hs.URL, testPlanBody(0), false); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker submit: status %d: %s", resp.StatusCode, data)
		}
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("blocker never reached the engine")
		}
		type result struct {
			code int
			data []byte
			err  error
		}
		got := make(chan result, 1)
		go func() {
			body, err := json.Marshal(testPlanBody(1))
			if err != nil {
				got <- result{err: err}
				return
			}
			hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
			if err != nil {
				got <- result{err: err}
				return
			}
			hreq.Header.Set("Content-Type", "application/json")
			hreq.Header.Set(client.DeadlineHeader, "1")
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				got <- result{err: err}
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			got <- result{code: resp.StatusCode, data: data, err: err}
		}()
		time.Sleep(50 * time.Millisecond) // let the 1ms budget lapse while queued
		close(release)
		r := <-got
		if r.err != nil {
			t.Fatalf("deadlined submit: %v", r.err)
		}
		if r.code != http.StatusGatewayTimeout {
			t.Fatalf("deadlined submit: status %d, want 504: %s", r.code, r.data)
		}
		var doc struct {
			Error *client.Error `json:"error"`
		}
		if err := json.Unmarshal(r.data, &doc); err != nil || doc.Error == nil {
			t.Fatalf("response is not an error envelope: %s", r.data)
		}
		if !errors.Is(doc.Error, context.DeadlineExceeded) {
			t.Errorf("error %v is not DeadlineExceeded", doc.Error)
		}
		if n := engineRuns.Load(); n != 0 {
			t.Errorf("engine ran %d times for a lapsed-deadline job, want 0", n)
		}
		if v := srv.Registry().Counter("service.deadline.expired").Value(); v != 1 {
			t.Errorf("service.deadline.expired = %v, want 1", v)
		}
	})

	t.Run("bounds engine context", func(t *testing.T) {
		_, hs := newTestServer(t, Config{}, func(ctx context.Context, _ client.SubmitRequest) (json.RawMessage, error) {
			<-ctx.Done() // only a propagated deadline can release this
			return nil, ctx.Err()
		})
		resp, data := submitWithDeadline(t, hs.URL, testPlanBody(0), "250", true)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504: %s", resp.StatusCode, data)
		}
		if we := decodeWireError(t, data); !errors.Is(we, context.DeadlineExceeded) {
			t.Errorf("error %v is not DeadlineExceeded", we)
		}
	})
}

// TestListJobs proves GET /v1/jobs returns submissions oldest first.
func TestListJobs(t *testing.T) {
	checkListOrder(t, 1)
}

// TestListJobsOrdersPastEightDigits proves the listing keeps submission
// order once IDs outgrow their eight zero-padded digits, where lexical
// order breaks (99,999,999 before 100,000,000).
func TestListJobsOrdersPastEightDigits(t *testing.T) {
	checkListOrder(t, 99999998)
}

// checkListOrder submits three jobs to a server whose next ID is first and
// checks that GET /v1/jobs lists exactly their IDs in submission order.
func checkListOrder(t *testing.T, first int) {
	t.Helper()
	srv, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		return stubResult(), nil
	})
	srv.mu.Lock()
	srv.nextID = first
	srv.mu.Unlock()
	var want []string
	for i := 0; i < 3; i++ {
		resp, data := submit(t, hs.URL, testPlanBody(i), true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
		want = append(want, fmt.Sprintf("job-%08d", first+i))
	}
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var jobs []client.Job
	if err := json.Unmarshal(data, &jobs); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, j.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("listed %v, want %v", got, want)
	}
}

// TestFinishedJobsBounded proves the job table keeps only the newest
// maxFinished finished jobs. Cache hits past the cap evict the oldest
// finished job first, and evicted IDs answer 404 not_found, through the
// client too. A job parked in the engine survives the pressure and its
// waited GET still completes, and a shed job leaves no trace.
func TestFinishedJobsBounded(t *testing.T) {
	const limit, extra = 4, 6
	gated := testPlanBody(1)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	srv := newServer(Config{Workers: 1, QueueDepth: 1}, limit)
	srv.engine = func(_ context.Context, req client.SubmitRequest) (json.RawMessage, error) {
		if req.Plan.Run.GlobalBatch == gated.Plan.Run.GlobalBatch {
			entered <- struct{}{}
			<-release
		}
		return stubResult(), nil
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		unpark()
		hs.Close()
		srv.Close()
	})
	tableSize := func() (jobs, finished int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.jobs), len(srv.finished)
	}

	// job 1 warms the key; job 2 parks in the engine; job 3 fills the
	// 1-deep queue; job 4 is shed.
	if resp, data := submit(t, hs.URL, testPlanBody(0), true); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up submit: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := submit(t, hs.URL, gated, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("parked submit: status %d: %s", resp.StatusCode, data)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("parked job never reached the engine")
	}
	if resp, data := submit(t, hs.URL, testPlanBody(2), false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := submit(t, hs.URL, testPlanBody(3), false); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit: status %d, want 503: %s", resp.StatusCode, data)
	}
	const warm, parked, queued, shed = "job-00000001", "job-00000002", "job-00000003", "job-00000004"

	var hits []string
	for i := 0; i < limit+extra; i++ {
		resp, data := submit(t, hs.URL, testPlanBody(0), true)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hit %d: status %d: %s", i, resp.StatusCode, data)
		}
		var j client.Job
		if err := json.Unmarshal(data, &j); err != nil || !j.CacheHit {
			t.Fatalf("hit %d: not a cache hit (%v): %s", i, err, data)
		}
		hits = append(hits, j.ID)
		if n, f := tableSize(); f > limit || n > limit+2 {
			t.Fatalf("after hit %d the table holds %d jobs, %d finished; want at most %d finished plus the 2 in flight", i, n, f, limit)
		}
	}

	listIDs := func() []string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("GET /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		var jobs []client.Job
		if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
			t.Fatalf("decode list: %v", err)
		}
		ids := make([]string, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID
		}
		return ids
	}
	want := append([]string{parked, queued}, hits[extra:]...)
	if got := listIDs(); !slices.Equal(got, want) {
		t.Errorf("listed %v, want the in-flight jobs and the newest %d hits %v", got, limit, want)
	}

	// The evicted jobs answer not_found on the wire and through the client.
	c, err := client.New(hs.URL, client.WithRetries(0))
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	ctx := context.Background()
	for _, id := range append([]string{warm}, hits[:extra]...) {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET %s: %v", id, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || decodeWireError(t, data).Code != client.CodeNotFound {
			t.Errorf("evicted %s: status %d: %s; want 404 not_found", id, resp.StatusCode, data)
		}
		if _, err := c.Job(ctx, id); !errors.Is(err, client.ErrNotFound) {
			t.Errorf("client.Job(%s) = %v, want ErrNotFound", id, err)
		}
		if _, err := c.Wait(ctx, id); !errors.Is(err, client.ErrNotFound) {
			t.Errorf("client.Wait(%s) = %v, want ErrNotFound", id, err)
		}
	}
	if v := srv.Registry().Counter("service.jobs.evicted").Value(); v != extra+1 {
		t.Errorf("service.jobs.evicted = %v, want %d", v, extra+1)
	}

	// The shed job is nowhere: not fetchable, never finished.
	if _, err := c.Job(ctx, shed); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("shed job fetchable: %v", err)
	}
	srv.mu.Lock()
	if slices.Contains(srv.finished, shed) {
		t.Errorf("shed job recorded as finished: %v", srv.finished)
	}
	srv.mu.Unlock()

	// The parked job's waited GET blocks until the engine lets go, then
	// completes. The parked and queued jobs finish last, so they outlive
	// older finished hits with higher IDs.
	type outcome struct {
		job *client.Job
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		j, err := c.Wait(ctx, parked)
		waited <- outcome{j, err}
	}()
	select {
	case out := <-waited:
		t.Fatalf("waited GET returned while the job was parked: %+v, %v", out.job, out.err)
	case <-time.After(50 * time.Millisecond):
	}
	unpark()
	select {
	case out := <-waited:
		if out.err != nil || out.job.State != client.StateDone {
			t.Fatalf("parked job's waited GET = %+v, %v; want done", out.job, out.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked job's waited GET never completed")
	}
	if j, err := c.Wait(ctx, queued); err != nil || j.State != client.StateDone {
		t.Fatalf("queued job = %+v, %v; want done", j, err)
	}
	want = append([]string{parked, queued}, hits[limit+extra-2:]...)
	if got := listIDs(); !slices.Equal(got, want) {
		t.Errorf("after the parked jobs finished, listed %v, want %v", got, want)
	}
	if n, f := tableSize(); n != limit || f != limit {
		t.Errorf("drained table holds %d jobs, %d finished; want %d and %d", n, f, limit, limit)
	}
}

// TestMetricsAndPprofMounted proves the observability endpoints are wired:
// /metrics serves the Prometheus exposition including service counters, and
// /debug/pprof answers. The resubmit is a cache hit, so the cache counter is
// in the exposition too.
func TestMetricsAndPprofMounted(t *testing.T) {
	_, hs := newTestServer(t, Config{}, func(context.Context, client.SubmitRequest) (json.RawMessage, error) {
		return stubResult(), nil
	})
	for i := 0; i < 2; i++ {
		if resp, data := submit(t, hs.URL, testPlanBody(0), true); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{"service_jobs_submitted_total", "service_engine_searches_total", "service_cache_hits_total", "service_http_requests_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
	if resp, _ := http.Get(hs.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestRealEngineEndToEnd runs one plan through the actual planning engine —
// the only test here that does — proving the daemon's wiring against the real
// Planner and that the remote spec matches an in-process plan byte for byte.
func TestRealEngineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine search in -short mode")
	}
	_, hs := newTestServer(t, Config{}, nil) // nil = real engine

	c, err := client.New(hs.URL)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	model, cluster := autopipe.GPT2_345M(), autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	run := autopipe.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}

	remote, _, err := c.Plan(context.Background(), model, run, cluster)
	if err != nil {
		t.Fatalf("remote plan: %v", err)
	}
	local, _, err := autopipe.NewPlanner().Plan(context.Background(), model, run, cluster)
	if err != nil {
		t.Fatalf("local plan: %v", err)
	}
	if remote.Depth() != local.Depth() || remote.NumSliced != local.NumSliced ||
		remote.Predicted != local.Predicted ||
		fmt.Sprint(remote.Partition.Bounds) != fmt.Sprint(local.Partition.Bounds) {
		t.Errorf("remote plan differs from in-process plan:\nremote %+v\nlocal  %+v", remote, local)
	}

	// The analytic simulate and slice kinds round-trip too.
	prof := autopipe.StageProfile{Fwd: []float64{2, 1, 1, 1}, Bwd: []float64{4, 2, 2, 2}, Comm: 0.1, Micro: 8}
	simRemote, err := c.Simulate(context.Background(), prof)
	if err != nil {
		t.Fatalf("remote simulate: %v", err)
	}
	simLocal, err := autopipe.SimulateProfile(prof)
	if err != nil {
		t.Fatalf("local simulate: %v", err)
	}
	if simRemote.IterTime != simLocal.IterTime || simRemote.Master != simLocal.Master {
		t.Errorf("remote simulate %+v differs from local %+v", simRemote, simLocal)
	}
	sliceRemote, err := c.Slice(context.Background(), prof)
	if err != nil {
		t.Fatalf("remote slice: %v", err)
	}
	sliceLocal, err := autopipe.SliceProfile(prof)
	if err != nil {
		t.Fatalf("local slice: %v", err)
	}
	if sliceRemote.NumSliced != sliceLocal.NumSliced {
		t.Errorf("remote slice NumSliced = %d, local %d", sliceRemote.NumSliced, sliceLocal.NumSliced)
	}
}
