package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"autopipe"
)

// flakyHandler fails the first n requests with the given status (and a typed
// envelope when code is non-empty), then serves a done job document.
func flakyHandler(t *testing.T, failures int, status int, code string) (http.Handler, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		if int(n) <= failures {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			if code != "" {
				_ = json.NewEncoder(w).Encode(map[string]any{
					"error": &Error{Code: code, Message: "flaky: " + code},
				})
			}
			return
		}
		_ = json.NewEncoder(w).Encode(&Job{
			ID: "job-00000001", Kind: KindSimulate, State: StateDone,
			Result: json.RawMessage(`{"iterTime": 1.5, "startup": 0.25, "master": 0}`),
		})
	})
	return h, &attempts
}

// testClient builds a client against h whose retry sleeps are recorded
// instead of slept.
func testClient(t *testing.T, h http.Handler, opts ...Option) (*Client, *[]time.Duration, *httptest.Server) {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sleeps []time.Duration
	c.sleep = func(_ context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return nil
	}
	// Pin the full jitter at its supremum so the recorded sleeps equal the
	// exact exponential schedule (jitter semantics get their own test).
	c.jitter = func() float64 { return 1 }
	return c, &sleeps, hs
}

func simReq() SubmitRequest {
	return SubmitRequest{Kind: KindSimulate, Profile: &autopipe.StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{2, 2}, Comm: 0.1, Micro: 8}}
}

// TestRetryOn503 proves the client retries unavailable responses with
// exponential backoff and succeeds once the daemon recovers.
func TestRetryOn503(t *testing.T) {
	h, attempts := flakyHandler(t, 2, http.StatusServiceUnavailable, CodeUnavailable)
	c, sleeps, _ := testClient(t, h, WithRetries(3), WithBackoff(10*time.Millisecond))

	res, err := c.Simulate(context.Background(), *simReq().Profile)
	if err != nil {
		t.Fatalf("Simulate after flaky 503s: %v", err)
	}
	if res.IterTime != 1.5 || res.Master != 0 {
		t.Errorf("result = %+v, want the recovered document", res)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("made %d attempts, want 3 (2 failures + 1 success)", got)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(*sleeps) != len(want) {
		t.Fatalf("slept %v, want %v", *sleeps, want)
	}
	for i := range want {
		if (*sleeps)[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v (exponential from the base)", i, (*sleeps)[i], want[i])
		}
	}
}

// TestRetryExhaustion proves a daemon that never recovers surfaces the typed
// unavailable error after the configured attempts.
func TestRetryExhaustion(t *testing.T) {
	h, attempts := flakyHandler(t, 1000, http.StatusServiceUnavailable, CodeUnavailable)
	c, sleeps, _ := testClient(t, h, WithRetries(2), WithBackoff(time.Millisecond))

	_, err := c.Simulate(context.Background(), *simReq().Profile)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("made %d attempts, want 3 (1 + 2 retries)", got)
	}
	if len(*sleeps) != 2 {
		t.Errorf("slept %d times, want 2", len(*sleeps))
	}
}

// TestNoRetryOnTypedRejection proves 4xx/422 typed rejections are final:
// retrying a bad config cannot make it good.
func TestNoRetryOnTypedRejection(t *testing.T) {
	cases := []struct {
		code     string
		status   int
		sentinel error
	}{
		{CodeBadConfig, http.StatusBadRequest, autopipe.ErrBadConfig},
		{CodeInfeasible, http.StatusUnprocessableEntity, autopipe.ErrInfeasible},
		{CodeOOM, http.StatusUnprocessableEntity, autopipe.ErrOOM},
		{CodeInternal, http.StatusInternalServerError, autopipe.ErrInternal},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			h, attempts := flakyHandler(t, 1000, tc.status, tc.code)
			c, sleeps, _ := testClient(t, h, WithRetries(5))
			_, err := c.Simulate(context.Background(), *simReq().Profile)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
			if got := attempts.Load(); got != 1 {
				t.Errorf("made %d attempts, want 1 (typed rejections are final)", got)
			}
			if len(*sleeps) != 0 {
				t.Errorf("slept %v on a final rejection", *sleeps)
			}
		})
	}
}

// TestEvictedJobNotFound proves Job and Wait on a job the daemon has
// evicted fail with ErrNotFound, without retrying. The handler answers as
// the daemon does for an evicted ID: the submit succeeds, later GETs of its
// ID get the 404 not_found envelope.
func TestEvictedJobNotFound(t *testing.T) {
	const id = "job-00000001"
	var gets atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodPost {
			_ = json.NewEncoder(w).Encode(&Job{ID: id, Kind: KindSimulate, State: StateDone,
				Result: json.RawMessage(`{"iterTime": 1.5, "startup": 0.25, "master": 0}`)})
			return
		}
		gets.Add(1)
		wireErr, status := Encode(fmt.Errorf("service: job %q: %w", id, ErrNotFound))
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": wireErr})
	})
	c, sleeps, _ := testClient(t, h, WithRetries(3))
	ctx := context.Background()
	job, err := c.Submit(ctx, simReq())
	if err != nil || job.ID != id {
		t.Fatalf("Submit = %+v, %v", job, err)
	}
	if _, err := c.Job(ctx, id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Job on an evicted ID: err = %v, want ErrNotFound", err)
	}
	if _, err := c.Wait(ctx, id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Wait on an evicted ID: err = %v, want ErrNotFound", err)
	}
	if n := gets.Load(); n != 2 || len(*sleeps) != 0 {
		t.Errorf("made %d GETs with sleeps %v, want 2 and none (not_found is final)", n, *sleeps)
	}
}

// TestRetryOnUntypedProxy5xx proves a bare 5xx (an HTML-spewing proxy, a
// truncated body) is treated as unavailable and retried.
func TestRetryOnUntypedProxy5xx(t *testing.T) {
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintln(w, "<html>upstream sad</html>")
			return
		}
		_ = json.NewEncoder(w).Encode(&Job{ID: "job-00000001", Kind: KindSlice, State: StateDone, Result: json.RawMessage(`{"plan":{}}`)})
	})
	c, _, _ := testClient(t, h, WithRetries(2), WithBackoff(time.Millisecond))
	if _, err := c.Slice(context.Background(), *simReq().Profile); err != nil {
		t.Fatalf("Slice through flaky proxy: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("made %d attempts, want 2", got)
	}
}

// TestRetrySleepHonorsContext proves a canceled context cuts the retry loop.
func TestRetrySleepHonorsContext(t *testing.T) {
	h, _ := flakyHandler(t, 1000, http.StatusServiceUnavailable, CodeUnavailable)
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, WithRetries(10), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}
	_, err = c.Simulate(ctx, *simReq().Profile)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTransportErrorRetries proves refused connections are retryable: the
// client survives a daemon that comes up after its first attempt.
func TestTransportErrorRetries(t *testing.T) {
	// Point at a closed port: every attempt is a transport error.
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close()
	c, err := New(hs.URL, WithRetries(2), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sleeps atomic.Int64
	c.sleep = func(context.Context, time.Duration) error {
		sleeps.Add(1)
		return nil
	}
	_, err = c.Simulate(context.Background(), *simReq().Profile)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if got := sleeps.Load(); got != 2 {
		t.Errorf("retried %d times, want 2", got)
	}
}

// TestBackoffJitterAndCap proves the retry schedule is full-jitter over the
// exponential term with a hard ceiling: sleep k is jitter() * min(base<<k,
// cap), so a fleet of retrying clients spreads out instead of thundering.
func TestBackoffJitterAndCap(t *testing.T) {
	h, _ := flakyHandler(t, 1000, http.StatusServiceUnavailable, CodeUnavailable)
	c, sleeps, _ := testClient(t, h, WithRetries(4),
		WithBackoff(time.Second), WithMaxBackoff(2*time.Second))
	c.jitter = func() float64 { return 0.5 }

	_, err := c.Simulate(context.Background(), *simReq().Profile)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// base<<k = 1s, 2s, 4s, 8s → capped to 1s, 2s, 2s, 2s → halved by jitter.
	want := []time.Duration{500 * time.Millisecond, time.Second, time.Second, time.Second}
	if len(*sleeps) != len(want) {
		t.Fatalf("slept %v, want %v", *sleeps, want)
	}
	for i := range want {
		if (*sleeps)[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, (*sleeps)[i], want[i])
		}
	}
}

// TestRetryAfterHonored proves a server-sent Retry-After wins over the
// computed backoff when larger — and is still subject to the cap.
func TestRetryAfterHonored(t *testing.T) {
	var attempts atomic.Int64
	mk := func(retryAfter string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if attempts.Add(1) == 1 {
				w.Header().Set("Retry-After", retryAfter)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				_ = json.NewEncoder(w).Encode(map[string]any{
					"error": &Error{Code: CodeUnavailable, Message: "recovering"},
				})
				return
			}
			_ = json.NewEncoder(w).Encode(&Job{
				ID: "job-00000001", Kind: KindSimulate, State: StateDone,
				Result: json.RawMessage(`{"iterTime": 1.5, "startup": 0.25, "master": 0}`),
			})
		})
	}

	// Header (3s) beats the 10ms computed backoff.
	c, sleeps, _ := testClient(t, mk("3"), WithRetries(2), WithBackoff(10*time.Millisecond))
	if _, err := c.Simulate(context.Background(), *simReq().Profile); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 3*time.Second {
		t.Errorf("sleeps = %v, want [3s] (Retry-After wins over backoff)", *sleeps)
	}

	// A huge header is clamped to the max backoff.
	attempts.Store(0)
	c2, sleeps2, _ := testClient(t, mk("120"), WithRetries(2),
		WithBackoff(10*time.Millisecond), WithMaxBackoff(2*time.Second))
	if _, err := c2.Simulate(context.Background(), *simReq().Profile); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(*sleeps2) != 1 || (*sleeps2)[0] != 2*time.Second {
		t.Errorf("sleeps = %v, want [2s] (Retry-After capped)", *sleeps2)
	}

	// An unparsable header falls back to the computed backoff.
	attempts.Store(0)
	c3, sleeps3, _ := testClient(t, mk("Thu, 01 Jan 2026 00:00:00 GMT"),
		WithRetries(2), WithBackoff(10*time.Millisecond))
	if _, err := c3.Simulate(context.Background(), *simReq().Profile); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(*sleeps3) != 1 || (*sleeps3)[0] != 10*time.Millisecond {
		t.Errorf("sleeps = %v, want [10ms] (date form ignored)", *sleeps3)
	}
}

// TestCircuitBreaker proves the failure-rate breaker: consecutive
// unavailable-class call failures open it, open calls fail fast without
// touching the wire, and the post-cooldown probe closes it on success.
func TestCircuitBreaker(t *testing.T) {
	healthy := atomic.Bool{}
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(&Job{
			ID: "job-00000001", Kind: KindSimulate, State: StateDone,
			Result: json.RawMessage(`{"iterTime": 1.5, "startup": 0.25, "master": 0}`),
		})
	})
	c, _, _ := testClient(t, h, WithRetries(0), WithCircuitBreaker(2, time.Second))
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Simulate(context.Background(), *simReq().Profile); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("made %d attempts, want 2", got)
	}

	// Open: fail fast, no wire traffic, typed as both circuit-open and
	// unavailable.
	_, err := c.Simulate(context.Background(), *simReq().Profile)
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open-breaker err = %v, want ErrCircuitOpen and ErrUnavailable", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("open breaker still hit the wire (%d attempts)", got)
	}

	// After the cooldown the probe goes through; the daemon recovered, so
	// the breaker closes and stays closed.
	clock = clock.Add(2 * time.Second)
	healthy.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := c.Simulate(context.Background(), *simReq().Profile); err != nil {
			t.Fatalf("post-recovery call %d: %v", i, err)
		}
	}
	if got := attempts.Load(); got != 4 {
		t.Errorf("made %d attempts, want 4 (probe + one more)", got)
	}
}

// TestCircuitBreakerReopensOnFailedProbe proves a failed probe reopens the
// breaker immediately (the failure count is not reset by opening).
func TestCircuitBreakerReopensOnFailedProbe(t *testing.T) {
	h, attempts := flakyHandler(t, 1000, http.StatusServiceUnavailable, CodeUnavailable)
	c, _, _ := testClient(t, h, WithRetries(0), WithCircuitBreaker(2, time.Second))
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		_, _ = c.Simulate(context.Background(), *simReq().Profile)
	}
	clock = clock.Add(2 * time.Second) // cooldown over: next call is the probe
	if _, err := c.Simulate(context.Background(), *simReq().Profile); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("probe err = %v, want ErrUnavailable", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("made %d attempts, want 3", got)
	}
	// The failed probe reopened the breaker: fail fast again.
	if _, err := c.Simulate(context.Background(), *simReq().Profile); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-probe err = %v, want ErrCircuitOpen", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("reopened breaker still hit the wire (%d attempts)", got)
	}
}

// TestRateLimitedRetriesButSkipsBreaker proves a 429 is retried (the daemon
// asked us to slow down, not go away) yet never counts toward the breaker —
// a rate-limiting daemon is a healthy daemon.
func TestRateLimitedRetriesButSkipsBreaker(t *testing.T) {
	h, attempts := flakyHandler(t, 2, http.StatusTooManyRequests, CodeRateLimited)
	c, sleeps, _ := testClient(t, h, WithRetries(3),
		WithBackoff(10*time.Millisecond), WithCircuitBreaker(1, time.Minute))

	res, err := c.Simulate(context.Background(), *simReq().Profile)
	if err != nil {
		t.Fatalf("Simulate after 429s: %v", err)
	}
	if res.IterTime != 1.5 {
		t.Errorf("result = %+v, want the recovered document", res)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("made %d attempts, want 3", got)
	}
	if len(*sleeps) != 2 {
		t.Errorf("slept %d times, want 2", len(*sleeps))
	}

	// Exhausting retries on 429 surfaces the typed sentinel without ever
	// opening the breaker (threshold is 1 here).
	h2, _ := flakyHandler(t, 1000, http.StatusTooManyRequests, CodeRateLimited)
	c2, _, _ := testClient(t, h2, WithRetries(1), WithCircuitBreaker(1, time.Minute))
	if _, err := c2.Simulate(context.Background(), *simReq().Profile); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if _, err := c2.Simulate(context.Background(), *simReq().Profile); errors.Is(err, ErrCircuitOpen) {
		t.Errorf("429s opened the breaker: %v", err)
	}
}

// TestDeadlineHeaderStamped proves every request carries the caller's
// remaining budget: from the context deadline when one is set, else from the
// per-attempt HTTP timeout.
func TestDeadlineHeaderStamped(t *testing.T) {
	var header atomic.Value
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(DeadlineHeader))
		_ = json.NewEncoder(w).Encode(&Job{
			ID: "job-00000001", Kind: KindSimulate, State: StateDone,
			Result: json.RawMessage(`{"iterTime": 1.5, "startup": 0.25, "master": 0}`),
		})
	})
	c, _, _ := testClient(t, h, WithTimeout(30*time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Simulate(ctx, *simReq().Profile); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	ms, err := strconv.Atoi(header.Load().(string))
	if err != nil || ms <= 0 || ms > 10_000 {
		t.Errorf("deadline header = %q, want ~10000ms from the context deadline", header.Load())
	}

	if _, err := c.Simulate(context.Background(), *simReq().Profile); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	ms, err = strconv.Atoi(header.Load().(string))
	if err != nil || ms != 30_000 {
		t.Errorf("deadline header = %q, want 30000ms from the HTTP timeout", header.Load())
	}
}

// TestNewValidation pins the constructor's URL checks.
func TestNewValidation(t *testing.T) {
	for _, bad := range []string{"", "not a url at all\x7f", "127.0.0.1:8080", "/relative"} {
		if _, err := New(bad); !errors.Is(err, autopipe.ErrBadConfig) {
			t.Errorf("New(%q) = %v, want ErrBadConfig", bad, err)
		}
	}
	c, err := New("http://127.0.0.1:7180/")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.base != "http://127.0.0.1:7180" {
		t.Errorf("base = %q, want trailing slash trimmed", c.base)
	}
}

// TestClientValidatesBeforeSending proves a structurally bad request never
// reaches the wire.
func TestClientValidatesBeforeSending(t *testing.T) {
	var attempts atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { attempts.Add(1) })
	c, _, _ := testClient(t, h)
	if _, err := c.Submit(context.Background(), SubmitRequest{Kind: "transmogrify"}); !errors.Is(err, autopipe.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	badRun := autopipe.Run{MicroBatch: 0, GlobalBatch: 512}
	if _, _, err := c.Plan(context.Background(), autopipe.GPT2_345M(), badRun, autopipe.DefaultCluster()); !errors.Is(err, autopipe.ErrBadConfig) {
		t.Fatalf("Plan with an invalid run: err = %v, want ErrBadConfig", err)
	}
	if attempts.Load() != 0 {
		t.Errorf("invalid request reached the daemon")
	}
}

// TestTimeoutOptionOrder proves WithTimeout applies whichever side of
// WithHTTPClient it comes on, never modifies the caller's http.Client, and
// sets the deadline header the client stamps; a nil WithHTTPClient keeps
// the default client.
func TestTimeoutOptionOrder(t *testing.T) {
	var header atomic.Value
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(DeadlineHeader))
		_ = json.NewEncoder(w).Encode(&Job{
			ID: "job-00000001", Kind: KindSimulate, State: StateDone,
			Result: json.RawMessage(`{"iterTime": 1.5, "startup": 0.25, "master": 0}`),
		})
	})
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	for _, tc := range []struct {
		name string
		opts func(hc *http.Client) []Option
	}{
		{"timeout first", func(hc *http.Client) []Option { return []Option{WithTimeout(5 * time.Second), WithHTTPClient(hc)} }},
		{"client first", func(hc *http.Client) []Option { return []Option{WithHTTPClient(hc), WithTimeout(5 * time.Second)} }},
	} {
		hc := &http.Client{Timeout: 90 * time.Second}
		c, err := New(hs.URL, tc.opts(hc)...)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		if c.hc.Timeout != 5*time.Second {
			t.Errorf("%s: timeout %v, want 5s", tc.name, c.hc.Timeout)
		}
		if hc.Timeout != 90*time.Second {
			t.Errorf("%s: the caller's http.Client timeout became %v", tc.name, hc.Timeout)
		}
		if _, err := c.Simulate(context.Background(), *simReq().Profile); err != nil {
			t.Fatalf("%s: Simulate: %v", tc.name, err)
		}
		if got := header.Load(); got != "5000" {
			t.Errorf("%s: deadline header %q, want 5000", tc.name, got)
		}
	}

	c, err := New(hs.URL, WithHTTPClient(nil))
	if err != nil {
		t.Fatalf("New with a nil client: %v", err)
	}
	if _, err := c.Simulate(context.Background(), *simReq().Profile); err != nil {
		t.Fatalf("Simulate with a nil client: %v", err)
	}
	if got := header.Load(); got != "60000" {
		t.Errorf("nil client: deadline header %q, want the default 60000", got)
	}
}
