package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"autopipe"
)

// Client talks to an autopiped daemon. The zero value is not usable; call
// New. A Client's configuration is immutable after construction and it is
// safe for concurrent use; its only mutable state is the circuit breaker's
// failure count, which is internally synchronized.
type Client struct {
	base string
	hc   *http.Client
	// timeout is WithTimeout's per-attempt bound, applied to a copy of hc
	// after every option has run when timeoutSet.
	timeout    time.Duration
	timeoutSet bool
	// deadlineHdr is the deadline header for calls whose context has no
	// deadline: hc's timeout in milliseconds, or nil when it has none.
	deadlineHdr []string
	retries     int
	backoff     time.Duration
	maxBackoff  time.Duration
	budget      int
	// sleep is swapped out by tests so retry/backoff runs instantly.
	sleep func(ctx context.Context, d time.Duration) error
	// jitter returns a uniform sample in [0,1); tests pin it.
	jitter func() float64
	// now is the breaker's clock; tests advance it by hand.
	now func() time.Time

	// Circuit breaker: after brThreshold consecutive unavailable-class call
	// failures, calls fail fast with ErrCircuitOpen until brCooldown passes;
	// the first call after the cooldown is the probe that closes or reopens
	// it. brThreshold 0 disables the breaker.
	brThreshold int
	brCooldown  time.Duration
	brMu        sync.Mutex
	brFails     int
	brOpenUntil time.Time
}

// Option configures a Client at construction, in the same functional-option
// style as autopipe.NewPlanner.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection pools,
// TLS, proxies). The default is a client with a 60s overall timeout; nil
// keeps it. The Client never modifies hc: WithTimeout, in either order,
// applies to a copy.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetries sets how many times a failed request is retried (default 2,
// so up to 3 attempts). Only transport errors and retryable statuses —
// 429 rate-limited, 503 unavailable, and bare 5xx — are retried; a typed
// 4xx/422 rejection is final.
func WithRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithBackoff sets the base retry backoff (default 100ms). Attempt k sleeps
// a full-jitter fraction of min(base<<k, max backoff) — uniform in
// (0, base<<k] — so a fleet of clients hammering a recovering daemon spreads
// out instead of thundering in lockstep. A server-sent Retry-After larger
// than the jittered value wins (still subject to the cap), and the sleep is
// cut short by context cancellation.
func WithBackoff(base time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoff = base
		}
	}
}

// WithMaxBackoff caps every retry sleep, jittered or server-directed
// (default 5s).
func WithMaxBackoff(max time.Duration) Option {
	return func(c *Client) {
		if max > 0 {
			c.maxBackoff = max
		}
	}
}

// WithCircuitBreaker tunes the client's failure-rate circuit breaker: after
// failures consecutive calls end in an unavailable-class error (transport
// failure, 503, bare 5xx — not typed rejections, not 429), subsequent calls
// fail fast with ErrCircuitOpen for the cooldown, then a single probe call
// decides whether to close or reopen. The default is 5 failures with a 1s
// cooldown; failures <= 0 disables the breaker entirely.
func WithCircuitBreaker(failures int, cooldown time.Duration) Option {
	return func(c *Client) {
		c.brThreshold = failures
		if cooldown > 0 {
			c.brCooldown = cooldown
		}
	}
}

// WithTimeout bounds each HTTP attempt (not the whole retry loop — bound
// that with the caller's context). It replaces the http.Client timeout,
// whichever client WithHTTPClient supplies and in whatever order the two
// options come.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout, c.timeoutSet = d, true }
}

// WithSearchBudget caps the candidate partitions the daemon's search may
// simulate on this client's plan jobs (0 = unlimited), mirroring
// autopipe.WithSearchBudget. The budget is part of the plan's cache key.
func WithSearchBudget(candidates int) Option {
	return func(c *Client) { c.budget = candidates }
}

// New returns a Client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7433"). The URL must be absolute; a trailing slash is
// trimmed. Errors wrap autopipe.ErrBadConfig.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("%w: client: bad base URL %q: %v", autopipe.ErrBadConfig, baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("%w: client: base URL %q must be absolute (http://host:port)", autopipe.ErrBadConfig, baseURL)
	}
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          &http.Client{Timeout: 60 * time.Second},
		retries:     2,
		backoff:     100 * time.Millisecond,
		maxBackoff:  5 * time.Second,
		sleep:       sleepCtx,
		jitter:      rand.Float64,
		now:         time.Now,
		brThreshold: 5,
		brCooldown:  time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.timeoutSet {
		hc := *c.hc
		hc.Timeout = c.timeout
		c.hc = &hc
	}
	if c.hc.Timeout > 0 {
		c.deadlineHdr = []string{strconv.FormatInt(c.hc.Timeout.Milliseconds(), 10)}
	}
	return c, nil
}

// Plan submits a plan job and waits for its result: the daemon-side
// equivalent of autopipe.NewPlanner(...).Plan. The returned Job carries the
// cache metadata (Key, CacheHit, Shared); the block array is rebuilt locally
// with autopipe.Build when needed. Failures are errors.Is-compatible with
// the in-process sentinels.
func (c *Client) Plan(ctx context.Context, m autopipe.Model, run autopipe.Run, cluster autopipe.Cluster) (*autopipe.Spec, *Job, error) {
	job, err := c.Submit(ctx, SubmitRequest{
		Kind: KindPlan,
		Plan: &PlanPayload{Model: m, Run: run, Cluster: cluster, Budget: c.budget},
	})
	if err != nil {
		return nil, job, err
	}
	var res PlanResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return nil, job, fmt.Errorf("%w: client: undecodable plan result: %v", autopipe.ErrInternal, err)
	}
	return res.Spec, job, nil
}

// Simulate runs the analytic 1F1B simulator on the daemon, the remote
// counterpart of autopipe.SimulateProfile.
func (c *Client) Simulate(ctx context.Context, p autopipe.StageProfile) (*SimulateResult, error) {
	job, err := c.Submit(ctx, SubmitRequest{Kind: KindSimulate, Profile: &p})
	if err != nil {
		return nil, err
	}
	var res SimulateResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return nil, fmt.Errorf("%w: client: undecodable simulate result: %v", autopipe.ErrInternal, err)
	}
	return &res, nil
}

// Slice solves Algorithm 2 on the daemon, the remote counterpart of
// autopipe.SliceProfile.
func (c *Client) Slice(ctx context.Context, p autopipe.StageProfile) (autopipe.SlicePlan, error) {
	job, err := c.Submit(ctx, SubmitRequest{Kind: KindSlice, Profile: &p})
	if err != nil {
		return autopipe.SlicePlan{}, err
	}
	var res SliceResult
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return autopipe.SlicePlan{}, fmt.Errorf("%w: client: undecodable slice result: %v", autopipe.ErrInternal, err)
	}
	return res.Plan, nil
}

// Submit posts a job and blocks until it reaches a terminal state (the
// daemon holds the request open). A failed job is returned as its typed
// error alongside the job document.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*Job, error) {
	job, err := c.postJob(ctx, req, true)
	if err != nil {
		return job, err
	}
	if err := job.Err(); err != nil {
		return job, err
	}
	if !job.Terminal() {
		return job, fmt.Errorf("%w: client: daemon returned non-terminal job %s from a waited submit", autopipe.ErrInternal, job.ID)
	}
	return job, nil
}

// SubmitAsync posts a job and returns immediately with its pending/running
// document; poll it with Job or block with Wait.
func (c *Client) SubmitAsync(ctx context.Context, req SubmitRequest) (*Job, error) {
	return c.postJob(ctx, req, false)
}

// Job fetches the current state of a job by ID. An ID the daemon never
// issued, or a finished job it has since evicted, returns ErrNotFound.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	return c.getJob(ctx, id, false)
}

// Wait blocks until the job reaches a terminal state and returns it. Like
// Submit, a failed job surfaces as its typed error.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	job, err := c.getJob(ctx, id, true)
	if err != nil {
		return job, err
	}
	return job, job.Err()
}

// Jobs lists the jobs the daemon retains, oldest first: every pending and
// running job, and the newest finished ones (older finished jobs are
// evicted, and Job and Wait on their IDs return ErrNotFound).
func (c *Client) Jobs(ctx context.Context) ([]*Job, error) {
	var jobs []*Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &jobs); err != nil {
		return nil, err
	}
	return jobs, nil
}

// Metrics scrapes the daemon's /metrics endpoint and returns the Prometheus
// text exposition verbatim.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, _, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

func (c *Client) postJob(ctx context.Context, req SubmitRequest, wait bool) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	path := "/v1/jobs"
	if wait {
		path += "?wait=1"
	}
	var job Job
	if err := c.do(ctx, http.MethodPost, path, &req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

func (c *Client) getJob(ctx context.Context, id string, wait bool) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: client: empty job id", autopipe.ErrBadConfig)
	}
	path := "/v1/jobs/" + url.PathEscape(id)
	if wait {
		path += "?wait=1"
	}
	var job Job
	if err := c.do(ctx, http.MethodGet, path, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// do performs one API call with retries and decodes the JSON response into
// out (which may be nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		body, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("%w: client: encode request: %v", autopipe.ErrBadConfig, err)
		}
	}
	respBody, _, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := decode(respBody, out); err != nil {
		return fmt.Errorf("%w: client: undecodable response from %s: %v", autopipe.ErrInternal, path, err)
	}
	return nil
}

// decode decodes a response body into out. A done job in the daemon's own
// form skips the reflective decode; anything else takes encoding/json.
func decode(data []byte, out any) error {
	if j, ok := out.(*Job); ok && parseDone(data, j) {
		return nil
	}
	return json.Unmarshal(data, out)
}

// roundTrip sends the request, retrying transport errors and retryable
// statuses with capped, full-jitter exponential backoff (a server-sent
// Retry-After wins when larger). Non-2xx responses decode into a typed
// *Error; a response that fails to decode becomes an ErrInternal-wrapped
// error carrying the status. The circuit breaker is consulted once per call:
// while open, the call fails fast without touching the wire.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	if err := c.breakerAllow(); err != nil {
		return nil, 0, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		data, status, retryAfter, err := c.once(ctx, method, path, body)
		switch {
		case err == nil:
			c.breakerRecord(nil)
			return data, status, nil
		case !retryable(err) || attempt >= c.retries:
			c.breakerRecord(err)
			return nil, status, err
		}
		lastErr = err
		d := c.backoffFor(attempt, retryAfter)
		if err := c.sleep(ctx, d); err != nil {
			c.breakerRecord(lastErr)
			return nil, 0, fmt.Errorf("client: retry canceled after %v: %w", lastErr, err)
		}
	}
}

// backoffFor computes the sleep before retrying attempt: full jitter over
// min(base<<attempt, cap), overridden by a larger server Retry-After (which
// is itself subject to the cap). The jitter multiplies the exponential term
// only — a daemon that names a recovery time gets exactly that.
func (c *Client) backoffFor(attempt int, retryAfter time.Duration) time.Duration {
	d := c.backoff << attempt
	if d > c.maxBackoff || d <= 0 { // <= 0: the shift overflowed
		d = c.maxBackoff
	}
	d = time.Duration(c.jitter() * float64(d))
	if retryAfter > d {
		d = retryAfter
		if d > c.maxBackoff {
			d = c.maxBackoff
		}
	}
	return d
}

// breakerAllow reports whether the circuit breaker admits a call right now.
func (c *Client) breakerAllow() error {
	if c.brThreshold <= 0 {
		return nil
	}
	c.brMu.Lock()
	defer c.brMu.Unlock()
	if c.now().Before(c.brOpenUntil) {
		return fmt.Errorf("client: failing fast until %s: %w: %w",
			c.brOpenUntil.Format(time.RFC3339), ErrCircuitOpen, ErrUnavailable)
	}
	return nil
}

// breakerRecord feeds a finished call's outcome to the breaker. Only
// unavailable-class failures count — a typed rejection or a 429 from a
// healthy, rate-limiting daemon proves the daemon is alive. The failure
// count is deliberately not reset when the breaker opens: the first probe
// call after the cooldown reopens it on failure, closes it on success.
func (c *Client) breakerRecord(err error) {
	if c.brThreshold <= 0 {
		return
	}
	failure := err != nil && errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrRateLimited)
	c.brMu.Lock()
	defer c.brMu.Unlock()
	if !failure {
		c.brFails = 0
		c.brOpenUntil = time.Time{}
		return
	}
	c.brFails++
	if c.brFails >= c.brThreshold {
		c.brOpenUntil = c.now().Add(c.brCooldown)
	}
}

func (c *Client) once(ctx context.Context, method, path string, body []byte) ([]byte, int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: client: build request: %v", autopipe.ErrBadConfig, err)
	}
	// The header values are shared by every request and only read, so the
	// keys, canonical already, are assigned without Header.Set's copies.
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	// Propagate the caller's remaining budget so the daemon can stop work
	// (and yield its search worker) the moment this caller would give up.
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	} else if c.deadlineHdr != nil {
		req.Header[DeadlineHeader] = c.deadlineHdr
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport errors (refused connection, reset, client timeout) are
		// retryable by classification below.
		return nil, 0, 0, fmt.Errorf("client: %s %s: %w: %v", method, path, ErrUnavailable, err)
	}
	defer resp.Body.Close()
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
	data, err := readBody(resp)
	if err != nil {
		return nil, resp.StatusCode, retryAfter, fmt.Errorf("client: read response: %w: %v", ErrUnavailable, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return data, resp.StatusCode, 0, nil
	}
	return nil, resp.StatusCode, retryAfter, decodeError(data, resp.StatusCode)
}

// jsonContentType is the Content-Type of every request body.
var jsonContentType = []string{"application/json"}

// maxResponseBytes bounds a response body.
const maxResponseBytes = 64 << 20

// readBody reads a response body of at most maxResponseBytes. A body whose
// length is declared is read into one buffer of that size, instead of the
// growing ones io.ReadAll makes.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxResponseBytes {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header (the
// only form the daemon emits; HTTP-date values from foreign proxies are
// ignored rather than guessed at).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeError turns a non-2xx body into a typed error. The daemon always
// sends {"error": {code, message}}; anything else (a proxy's HTML 502, a
// truncated body) maps onto unavailable for 5xx and internal otherwise.
func decodeError(data []byte, status int) error {
	var doc struct {
		Error *Error `json:"error"`
	}
	if err := json.Unmarshal(data, &doc); err == nil && doc.Error != nil && doc.Error.Code != "" {
		return doc.Error
	}
	if status >= 500 {
		return fmt.Errorf("client: HTTP %d: %w", status, ErrUnavailable)
	}
	return fmt.Errorf("%w: client: HTTP %d: %s", autopipe.ErrInternal, status, truncate(data, 200))
}

// retryable reports whether the failed attempt is worth repeating: transient
// daemon conditions (unavailable, rate-limited) only. Typed rejections (bad
// config, infeasible, OOM) and terminal failures are final on the first
// response.
func retryable(err error) bool {
	var we *Error
	if errors.As(err, &we) {
		return we.Code == CodeUnavailable || we.Code == CodeRateLimited
	}
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrRateLimited)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
