// Package service implements autopiped, the planner-as-a-service daemon: a
// job queue with a bounded worker pool over the serial planning engine, a
// content-addressed plan cache with singleflight dedup (a million
// near-identical plan requests cost one search), and an HTTP/JSON API whose
// typed wire errors round-trip the errdefs sentinels (client-side errors.Is
// sees exactly what in-process callers see). Jobs live in memory only: a
// restarted daemon recomputes a plan on its first request, which costs one
// search per distinct configuration.
//
// Endpoints:
//
//	POST /v1/jobs            submit a plan/simulate/slice job (?wait=1 blocks)
//	GET  /v1/jobs            list retained jobs, oldest first
//	GET  /v1/jobs/{id}       job status/result (?wait=1 blocks until terminal)
//	GET  /metrics            Prometheus text exposition of the obs registry
//	GET  /healthz            liveness probe
//	GET  /debug/pprof/...    net/http/pprof handlers
//
// Responses are compact JSON. The daemon keeps every pending and running
// job in memory but only the newest 4096 finished ones: older finished
// jobs are evicted in the order they finished, after which
// GET /v1/jobs/{id} answers 404 not_found. Eviction forgets the job
// document only; the plan cache still serves its result.
//
// A repeated cache hit makes no reflective JSON pass on either side of the
// wire. Submit bodies are memoized by their sha256, so a byte-identical body
// skips the decode, validation and keying; the memo holds as many bodies as
// the plan cache holds results. A done job's document is written from
// bytes: the prefix client.AppendDonePrefix writes, then the cached result,
// which the cache stores in the form encoding/json would write it, then
// client.DoneEnd. The client package owns that format and its Client reads
// such a document back without encoding/json.
package service

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/errdefs"
	"autopipe/internal/obs"
)

// Config parameterizes a Server. The zero value serves with four queue
// workers, a 256-deep queue and a 1024-entry cache.
type Config struct {
	// Workers is the number of queue workers executing jobs concurrently;
	// <= 0 means 4. Each plan search inside a job is serial, so Workers
	// bounds the planner's concurrency. Distinct requests run in parallel;
	// identical requests coalesce via singleflight regardless of this setting.
	Workers int
	// QueueDepth bounds the pending-job queue; <= 0 means 256. A full
	// queue rejects submissions with 503 unavailable (the client retries).
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache, and the memo
	// of validated submit bodies at the same count; <= 0 means 1024.
	// Eviction is FIFO in both.
	CacheEntries int
	// JobTimeout bounds each job's engine run (0 = no limit).
	JobTimeout time.Duration
	// RateLimit, when positive, caps admitted submissions at this many
	// requests/sec (token bucket); excess requests are rejected with 429
	// rate_limited plus a Retry-After naming when the next token accrues.
	RateLimit float64
	// RateBurst is the rate limiter's burst capacity; <= 0 means max(1,
	// RateLimit). Ignored when RateLimit is 0.
	RateBurst int
	// QueueWait bounds how long a submission may wait for a queue slot when
	// the queue is full before being shed with 503 + Retry-After. 0 sheds
	// immediately — overload never translates into unbounded submit latency.
	QueueWait time.Duration
	// Obs receives service and planner telemetry; nil means a fresh
	// registry (exposed at /metrics either way).
	Obs *obs.Registry
}

// finishedJobCap is how many finished jobs a Server keeps in memory.
const finishedJobCap = 4096

// maxBodyBytes bounds a submit body.
const maxBodyBytes = 8 << 20

// submission is a validated submit body: its decoded request and cache key.
// The memo hands one *submission to every job built from the same body
// bytes, and those jobs share the request's payloads, so nothing may modify
// a submission or what its request points to: jobs and the engine only read
// them.
type submission struct {
	req client.SubmitRequest
	key string
}

// job is the server-side state of one submitted job: the wire document, the
// original request, and a done channel closed when the job turns terminal.
type job struct {
	mu   sync.Mutex
	wire client.Job
	// req is read-only: its payloads may be shared with other jobs through
	// the submit memo.
	req  client.SubmitRequest
	done chan struct{}
	// deadline is the submitting caller's give-up time, derived from the
	// client's deadline header; zero means no caller deadline.
	deadline time.Time
}

// snapshot returns a copy of the wire document safe to marshal outside the
// lock. Result and Error are immutable once set, so shallow copy suffices.
func (j *job) snapshot() client.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wire
}

// Server is the autopiped daemon core. Create with New, launch the workers
// with Start, mount Handler on an http.Server, and Close to drain.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *planCache
	memo    *fifo[[sha256.Size]byte, *submission]
	sf      *singleflight
	limiter *tokenBucket
	mux     *http.ServeMux

	// engine executes one validated request. It is a field so tests can
	// gate or count executions; production servers always use runEngine.
	engine func(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error)

	// The counters every cache hit moves, resolved once so the hit path
	// takes no registry lock.
	httpRequests, jobsSubmitted, cacheHits, jobsCompleted *obs.Counter

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *job

	mu   sync.Mutex
	jobs map[string]*job
	// finished lists the IDs of the finished jobs in jobs, in the order they
	// finished; retire evicts from its front beyond maxFinished.
	finished    []string
	maxFinished int
	nextID      int
	closed      bool
}

// New builds a Server but does not start workers — call Start. It returns
// no error for any Config.
func New(cfg Config) (*Server, error) { return newServer(cfg, finishedJobCap), nil }

// newServer is New with the finished-job cap as a parameter, so tests can
// drive eviction with a handful of jobs.
func newServer(cfg Config, maxFinished int) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		cache:   newPlanCache(cfg.CacheEntries),
		memo:    newFIFO[[sha256.Size]byte, *submission](cfg.CacheEntries),
		sf:      newSingleflight(),
		limiter: newTokenBucket(cfg.RateLimit, cfg.RateBurst),
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		nextID:  1,

		maxFinished: maxFinished,

		httpRequests:  reg.Counter("service.http.requests"),
		jobsSubmitted: reg.Counter("service.jobs.submitted"),
		cacheHits:     reg.Counter("service.cache.hits"),
		jobsCompleted: reg.Counter("service.jobs.completed"),
	}
	s.engine = s.runEngine
	s.buildMux()
	return s
}

// Start launches the worker pool. Call once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.ctx.Done():
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}
}

// Close stops accepting jobs, cancels in-flight engine runs, waits for the
// workers, and drains the queue. A job whose search Close interrupts, or
// that was still queued, fails with client.ErrUnavailable, so its waiters
// get a retryable 503 instead of blocking.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.drain()
}

// drain fails every job in the queue with client.ErrUnavailable. Close calls
// it once the workers are gone, and enqueue calls it for a job that arrived
// after Close began.
func (s *Server) drain() {
	for {
		select {
		case j := <-s.queue:
			s.failJob(j, fmt.Errorf("service: shut down before the job ran: %w", client.ErrUnavailable))
		default:
			return
		}
	}
}

// Registry exposes the server's obs registry, for in-process callers that
// read metrics without scraping /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.Handle("GET /metrics", obs.Handler(s.reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
}

// handleSubmit accepts a job. Admission control runs first: the token
// bucket rejects excess load with 429 rate_limited, and a queue that stays
// full past QueueWait sheds with 503 — both carry a Retry-After computed
// from when capacity is expected back, so well-behaved clients spread out
// instead of hammering an overloaded daemon. Structural problems (malformed
// JSON, unknown kind, missing payload, a garbled deadline header) reject
// with 400 before a job exists. With ?wait=1 the response blocks until the
// job is terminal and its HTTP status reflects the typed outcome (200 on
// success, 400/422/… on failure); without it, 202 + the pending document.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, wait := s.limiter.take(); !ok {
		s.reg.Counter("service.admission.ratelimited").Inc()
		s.writeErrorRetry(w, ceilSeconds(wait),
			fmt.Errorf("service: submission rate limit exceeded: %w", client.ErrRateLimited))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, malformedSubmit(err))
		return
	}
	sub, err := s.parseSubmission(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	deadline, err := parseDeadline(r.Header.Get(client.DeadlineHeader))
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, key := sub.req, sub.key

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.writeErrorRetry(w, 1, fmt.Errorf("service: draining for shutdown: %w", client.ErrUnavailable))
		return
	}
	id := fmt.Sprintf("job-%08d", s.nextID)
	s.nextID++
	j := &job{
		wire:     client.Job{ID: id, Kind: req.Kind, State: client.StatePending, Key: key},
		req:      req,
		done:     make(chan struct{}),
		deadline: deadline,
	}
	s.jobs[id] = j
	s.mu.Unlock()
	s.jobsSubmitted.Inc()

	// Cache fast path: an identical finished request never touches the
	// queue — the daemon's whole reason to exist.
	if val, ok := s.cache.Get(key); ok {
		s.cacheHits.Inc()
		s.finish(j, val, true, false)
		s.respondJob(w, r, j)
		return
	}

	if !s.enqueue(r.Context(), j) {
		// Shed: the job must vanish from the table, so no listing or GET
		// shows work the caller was told to retry.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.reg.Counter("service.admission.shed").Inc()
		s.writeErrorRetry(w, retryAfterSeconds(len(s.queue), s.cfg.Workers),
			fmt.Errorf("service: job queue full (%d deep): %w", s.cfg.QueueDepth, client.ErrUnavailable))
		return
	}
	s.reg.Counter("service.admission.admitted").Inc()
	s.reg.Gauge("service.queue.depth").Set(float64(len(s.queue)))
	s.respondJob(w, r, j)
}

// parseSubmission returns the validated request in a submit body. A body
// accepted before is answered from the memo, looked up by its sha256:
// decoding, validation and keying are deterministic in the body bytes, so
// the memo skips all three without changing an answer. Only accepted bodies
// are memoized; a rejected one is decoded again each time it is sent.
func (s *Server) parseSubmission(body []byte) (*submission, error) {
	digest := sha256.Sum256(body)
	if sub, ok := s.memo.Get(digest); ok {
		return sub, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req client.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, malformedSubmit(err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key, err := Key(req)
	if err != nil {
		return nil, err
	}
	sub := &submission{req: req, key: key}
	s.memo.Put(digest, sub)
	return sub, nil
}

func malformedSubmit(err error) error {
	return fmt.Errorf("%w: service: malformed submit request: %v", errdefs.ErrBadConfig, err)
}

// enqueue offers j to the worker queue, waiting up to QueueWait for a slot
// (or the submitter's own disconnect, whichever first). Reports whether the
// job was admitted.
func (s *Server) enqueue(ctx context.Context, j *job) bool {
	select {
	case s.queue <- j:
	default:
		if s.cfg.QueueWait <= 0 {
			return false
		}
		timer := time.NewTimer(s.cfg.QueueWait)
		defer timer.Stop()
		select {
		case s.queue <- j:
		case <-timer.C:
			return false
		case <-ctx.Done():
			return false
		}
	}
	if s.ctx.Err() != nil {
		// Close began after the submit passed its closed check, and its
		// drain may have run before j arrived: no worker is left to run j,
		// so fail it retryably here.
		s.drain()
	}
	return true
}

// respondJob writes the job document. With ?wait=1 it first blocks for a
// terminal state; a failed job's HTTP status comes from its typed error so
// the sentinel → status contract holds end to end.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *job) {
	if !waitRequested(r) {
		snap := j.snapshot()
		status := http.StatusAccepted
		if snap.Terminal() {
			status = http.StatusOK
		}
		writeJob(w, status, snap)
		return
	}
	// A finished job, every cache hit among them, is answered without
	// asking the request context for its done channel, which it makes on
	// first use.
	select {
	case <-j.done:
	default:
		select {
		case <-r.Context().Done():
			s.writeError(w, fmt.Errorf("service: wait aborted: %w", r.Context().Err()))
			return
		case <-j.done:
		}
	}
	snap := j.snapshot()
	if snap.State == client.StateFailed && snap.Error != nil {
		_, status := client.Encode(snap.Error)
		writeJSON(w, status, struct {
			Error *client.Error `json:"error"`
			Job   client.Job    `json:"job"`
		}{snap.Error, snap})
		return
	}
	writeJob(w, http.StatusOK, snap)
}

// waitRequested reports whether the request asks to wait for a terminal
// state: a non-empty wait parameter. The query the client sends, exactly
// "wait=1", is recognized without parsing.
func waitRequested(r *http.Request) bool {
	return r.URL.RawQuery == "wait=1" || r.URL.Query().Get("wait") != ""
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, fmt.Errorf("service: job %q: %w", id, client.ErrNotFound))
		return
	}
	if waitRequested(r) {
		s.respondJob(w, r, j)
		return
	}
	writeJob(w, http.StatusOK, j.snapshot())
}

// handleList lists the jobs in the table, oldest first.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]client.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	slices.SortFunc(out, func(a, b client.Job) int { return compareIDs(a.ID, b.ID) })
	writeJSON(w, http.StatusOK, out)
}

// runJob executes one queued job on a worker: re-check the cache (an
// identical job may have finished while this one queued), then coalesce
// identical in-flight searches through singleflight.
func (s *Server) runJob(j *job) {
	s.reg.Gauge("service.queue.depth").Set(float64(len(s.queue)))
	j.mu.Lock()
	key := j.wire.Key
	deadline := j.deadline
	j.wire.State = client.StateRunning
	j.mu.Unlock()

	if val, ok := s.cache.Get(key); ok {
		s.cacheHits.Inc()
		s.finish(j, val, true, false)
		return
	}
	s.reg.Counter("service.cache.misses").Inc()

	// A caller deadline that lapsed while the job queued means nobody is
	// waiting for this search: fail it typed (504 on the wire) without
	// burning engine time. A deadline still in the future bounds the engine
	// context, so an expensive search stops as soon as its caller gives up.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.reg.Counter("service.deadline.expired").Inc()
		s.failJob(j, fmt.Errorf("service: caller deadline lapsed while the job queued: %w", context.DeadlineExceeded))
		return
	}
	ctx := s.ctx
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	if !deadline.IsZero() {
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
	}
	val, err, shared := s.sf.Do(key, func() (json.RawMessage, error) {
		// Double-check the cache now that this call owns the key. A job can
		// miss the outer check, lose the race to an identical in-flight
		// search, and start a fresh Do call after it completes — but that
		// completion stored its result (below) before releasing the key, so
		// this check is guaranteed to see it. The engine runs at most once
		// per key per cache lifetime, no matter the interleaving.
		if val, ok := s.cache.Get(key); ok {
			s.cacheHits.Inc()
			return val, nil
		}
		s.reg.Counter("service.engine.searches").Inc()
		span := s.reg.StartSpan("service.engine")
		defer span.End()
		val, err := s.engine(ctx, j.req)
		if err != nil {
			return nil, err
		}
		if val, err = s.cache.Put(key, val); err != nil {
			return nil, err
		}
		s.reg.Gauge("service.cache.entries").Set(float64(s.cache.Len()))
		return val, nil
	})
	if shared {
		s.reg.Counter("service.singleflight.shared").Inc()
	}
	switch {
	case err == nil:
		s.finish(j, val, false, shared)
	case s.ctx.Err() != nil:
		// Shutdown interrupted the search: fail the job retryably, so its
		// waiters hear 503 unavailable and a retrying client resubmits to
		// the next daemon.
		s.failJob(j, fmt.Errorf("service: shut down mid-search: %w", client.ErrUnavailable))
	default:
		s.failJob(j, err)
	}
}

// finish moves a job to done with the given result document. A job turns
// terminal once: finish and failJob leave a terminal job as it is.
func (s *Server) finish(j *job, val json.RawMessage, cacheHit, shared bool) {
	j.mu.Lock()
	if j.wire.Terminal() {
		j.mu.Unlock()
		return
	}
	j.wire.State = client.StateDone
	j.wire.Result = val
	j.wire.CacheHit = cacheHit
	j.wire.Shared = shared
	id := j.wire.ID
	j.mu.Unlock()
	s.jobsCompleted.Inc()
	s.retire(id)
	close(j.done)
}

// failJob moves a job to failed with its typed wire error.
func (s *Server) failJob(j *job, err error) {
	wireErr, _ := client.Encode(err)
	j.mu.Lock()
	if j.wire.Terminal() {
		j.mu.Unlock()
		return
	}
	j.wire.State = client.StateFailed
	j.wire.Error = wireErr
	id := j.wire.ID
	j.mu.Unlock()
	s.reg.Counter("service.jobs.failed").Inc()
	s.retire(id)
	close(j.done)
}

// retire records the job id as finished and evicts the oldest finished jobs
// beyond maxFinished from the table. Pending and running jobs are never in
// finished, so they are never evicted. finish and failJob call it before
// closing done, so a released waiter sees the table already trimmed.
func (s *Server) retire(id string) {
	s.mu.Lock()
	s.finished = append(s.finished, id)
	evicted := 0
	for len(s.finished) > s.maxFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		s.reg.Counter("service.jobs.evicted").Add(float64(evicted))
	}
}

// runEngine executes one request on the real planning engine.
func (s *Server) runEngine(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error) {
	switch req.Kind {
	case client.KindPlan:
		p := autopipe.NewPlanner(
			autopipe.WithSearchBudget(req.Plan.Budget),
			autopipe.WithObserver(s.reg),
		)
		spec, _, err := p.Plan(ctx, req.Plan.Model, req.Plan.Run, req.Plan.Cluster)
		if err != nil {
			return nil, err
		}
		return marshalResult(client.PlanResult{Spec: spec})
	case client.KindSimulate:
		sr, err := autopipe.SimulateProfile(*req.Profile)
		if err != nil {
			return nil, err
		}
		return marshalResult(client.SimulateResult{IterTime: sr.IterTime, Startup: sr.Startup, Master: sr.Master})
	case client.KindSlice:
		sp, err := autopipe.SliceProfile(*req.Profile)
		if err != nil {
			return nil, err
		}
		return marshalResult(client.SliceResult{Plan: sp})
	default:
		return nil, fmt.Errorf("%w: service: unknown kind %q reached the engine", errdefs.ErrInternal, req.Kind)
	}
}

func marshalResult(v any) (json.RawMessage, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: service: encode result: %v", errdefs.ErrInternal, err)
	}
	return data, nil
}

// maxDeadlineMs is the largest deadline header whose duration fits a
// time.Duration.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// parseDeadline converts the client's relative-milliseconds deadline header
// into an absolute give-up time. Empty means no caller deadline; anything
// that is not a positive integer is a caller bug worth rejecting loudly, and
// so is a value whose duration would overflow into a deadline in the past.
func parseDeadline(header string) (time.Time, error) {
	if header == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(header, 10, 64)
	if err != nil || ms <= 0 || ms > maxDeadlineMs {
		return time.Time{}, fmt.Errorf("%w: service: malformed %s header %q (want positive relative milliseconds, at most %d)",
			errdefs.ErrBadConfig, client.DeadlineHeader, header, maxDeadlineMs)
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), nil
}

// writeErrorRetry is writeError plus a Retry-After of delay-seconds — every
// load-shedding rejection names when to come back.
func (s *Server) writeErrorRetry(w http.ResponseWriter, retryAfter int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	s.writeError(w, err)
}

// writeError renders err in the wire error envelope at its mapped status.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	wireErr, status := client.Encode(err)
	s.reg.Counter("service.http.errors").Inc()
	writeJSON(w, status, struct {
		Error *client.Error `json:"error"`
	}{wireErr})
}

// writeJob writes a job document: a done job from bytes (writeDone), any
// other through writeJSON.
func writeJob(w http.ResponseWriter, status int, j client.Job) {
	if j.State != client.StateDone || j.Error != nil {
		writeJSON(w, status, j)
		return
	}
	writeDone(w, status, j)
}

// jsonContentType is the Content-Type value of every JSON response. It is
// shared and only read.
var jsonContentType = []string{"application/json"}

// writeDone writes the bytes json.NewEncoder(w).Encode(j) would write for a
// done job without the reflective pass: client.AppendDonePrefix, the result
// bytes verbatim, then client.DoneEnd. That is exact because every done
// job's result is in the plan cache's form (planCache.Put), the form the
// encoder gives a RawMessage.
func writeDone(w http.ResponseWriter, status int, j client.Job) {
	buf := client.AppendDonePrefix(make([]byte, 0, 96+len(j.ID)+len(j.Kind)+len(j.State)+len(j.Key)), &j)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(buf) + len(j.Result) + len(client.DoneEnd))}
	w.WriteHeader(status)
	// Write errors mean the client went away; there is nobody to tell.
	_, _ = w.Write(buf)
	_, _ = w.Write(j.Result)
	_, _ = io.WriteString(w, client.DoneEnd)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Write errors mean the client went away; there is nobody to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// compareIDs orders job IDs in submission order. Every ID is "job-%08d",
// so a longer ID has the larger sequence number, including past the eight
// zero-padded digits where lexical order alone breaks.
func compareIDs(a, b string) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}
