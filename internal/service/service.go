// Package service implements autopiped, the planner-as-a-service daemon: a
// job queue with a bounded worker pool over the existing parallel planning
// engine, a content-addressed plan cache with singleflight dedup (a million
// near-identical plan requests cost one search), a JSON-on-disk job store
// that survives restarts, and an HTTP/JSON API whose typed wire errors
// round-trip the errdefs sentinels (client-side errors.Is sees exactly what
// in-process callers see).
//
// Endpoints:
//
//	POST /v1/jobs            submit a plan/simulate/slice job (?wait=1 blocks)
//	GET  /v1/jobs            list jobs, oldest first
//	GET  /v1/jobs/{id}       job status/result (?wait=1 blocks until terminal)
//	GET  /metrics            Prometheus text exposition of the obs registry
//	GET  /healthz            liveness probe
//	GET  /debug/pprof/...    net/http/pprof handlers
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
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
// workers, a 256-deep queue, a 1024-entry cache, and no persistence.
type Config struct {
	// Parallelism is the planner worker-pool size used inside each plan
	// search (the engine knob); <= 0 means one per CPU. It is not part of
	// the cache key — plans are identical at every setting.
	Parallelism int
	// Workers is the number of queue workers executing jobs concurrently;
	// <= 0 means 4. Distinct requests run in parallel; identical requests
	// coalesce via singleflight regardless of this setting.
	Workers int
	// QueueDepth bounds the pending-job queue; <= 0 means 256. A full
	// queue rejects submissions with 503 unavailable (the client retries).
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache; <= 0 means
	// 1024. Eviction is FIFO.
	CacheEntries int
	// StoreDir, when non-empty, persists every job (request + state) as
	// JSON under this directory. On restart, finished jobs are served from
	// the store and unfinished ones are re-enqueued.
	StoreDir string
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

// job is the server-side state of one submitted job: the wire document, the
// original request, and a done channel closed when the job turns terminal.
type job struct {
	mu   sync.Mutex
	wire client.Job
	req  client.SubmitRequest
	done chan struct{}
	// deadline is the submitting caller's give-up time, derived from the
	// client's deadline header; zero means no caller deadline. In-memory
	// only: a job replayed after a restart runs without one (its original
	// caller's budget is unknowable by then).
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
	store   *diskStore
	cache   *planCache
	sf      *singleflight
	limiter *tokenBucket
	mux     *http.ServeMux

	// engine executes one validated request. It is a field so tests can
	// gate or count executions; production servers always use runEngine.
	engine func(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *job

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	closed bool
}

// New builds a Server: it opens (and replays) the job store but does not
// start workers — call Start.
func New(cfg Config) (*Server, error) {
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
	store, err := openStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		store:   store,
		cache:   newPlanCache(cfg.CacheEntries),
		sf:      newSingleflight(),
		limiter: newTokenBucket(cfg.RateLimit, cfg.RateBurst),
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		nextID:  1,
	}
	s.engine = s.runEngine
	if err := s.replay(); err != nil {
		cancel()
		return nil, err
	}
	s.buildMux()
	return s, nil
}

// replay loads the persisted jobs: terminal ones become servable history
// (their results re-seed the cache), unfinished ones are re-enqueued.
// Damaged store files were quarantined by Load, not fatal: the count is
// surfaced on service.store.quarantined so a monitoring rule can notice a
// crash that tore the store.
func (s *Server) replay() error {
	stored, quarantined, err := s.store.Load()
	if err != nil {
		return err
	}
	if n := len(quarantined); n > 0 {
		s.reg.Counter("service.store.quarantined").Add(float64(n))
	}
	for _, sj := range stored {
		j := &job{wire: *sj.Job, req: sj.Request, done: make(chan struct{})}
		if n, ok := parseID(sj.Job.ID); ok && n >= s.nextID {
			s.nextID = n + 1
		}
		s.jobs[j.wire.ID] = j
		s.order = append(s.order, j.wire.ID)
		if j.wire.Terminal() {
			close(j.done)
			if j.wire.State == client.StateDone && j.wire.Key != "" && len(j.wire.Result) > 0 {
				s.cache.Put(j.wire.Key, j.wire.Result)
			}
			continue
		}
		// Interrupted mid-run or mid-queue: back to pending, run again.
		j.wire.State = client.StatePending
		if err := s.store.Put(&j.wire, j.req); err != nil {
			return err
		}
		select {
		case s.queue <- j:
			s.reg.Counter("service.jobs.resumed").Inc()
		default:
			return fmt.Errorf("%w: service: store replays more unfinished jobs than the queue holds (%d)",
				errdefs.ErrBadConfig, s.cfg.QueueDepth)
		}
	}
	s.reg.Gauge("service.cache.entries").Set(float64(s.cache.Len()))
	return nil
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

// Close stops accepting jobs, cancels in-flight engine runs, and waits for
// the workers. Unfinished persisted jobs revert to pending on disk, so a
// restarted daemon picks them back up.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Registry exposes the server's obs registry (for the chaos middleware and tests).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("service.http.requests").Inc()
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	var req client.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("%w: service: malformed submit request: %v", errdefs.ErrBadConfig, err))
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, err)
		return
	}
	deadline, err := parseDeadline(r.Header.Get(client.DeadlineHeader))
	if err != nil {
		s.writeError(w, err)
		return
	}
	key, err := Key(req)
	if err != nil {
		s.writeError(w, err)
		return
	}

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
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.reg.Counter("service.jobs.submitted").Inc()

	// Cache fast path: an identical finished request never touches the
	// queue — the daemon's whole reason to exist.
	if val, ok := s.cache.Get(key); ok {
		s.reg.Counter("service.cache.hits").Inc()
		s.finish(j, val, true, false)
		s.respondJob(w, r, j)
		return
	}

	if err := s.store.Put(&j.wire, req); err != nil {
		s.failJob(j, fmt.Errorf("%w: service: persist: %v", errdefs.ErrInternal, err))
		s.respondJob(w, r, j)
		return
	}
	if !s.enqueue(r.Context(), j) {
		// Shed: the job must vanish completely — from the map, the listing
		// order, and the disk store — or a restart would resurrect work the
		// caller was told to retry elsewhere.
		s.mu.Lock()
		delete(s.jobs, id)
		if n := len(s.order); n > 0 && s.order[n-1] == id {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		_ = s.store.Delete(id)
		s.reg.Counter("service.admission.shed").Inc()
		s.writeErrorRetry(w, retryAfterSeconds(len(s.queue), s.cfg.Workers),
			fmt.Errorf("service: job queue full (%d deep): %w", s.cfg.QueueDepth, client.ErrUnavailable))
		return
	}
	s.reg.Counter("service.admission.admitted").Inc()
	s.reg.Gauge("service.queue.depth").Set(float64(len(s.queue)))
	s.respondJob(w, r, j)
}

// enqueue offers j to the worker queue, waiting up to QueueWait for a slot
// (or the submitter's own disconnect, whichever first). Reports whether the
// job was admitted.
func (s *Server) enqueue(ctx context.Context, j *job) bool {
	select {
	case s.queue <- j:
		return true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		return false
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.queue <- j:
		return true
	case <-timer.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// respondJob writes the job document. With ?wait=1 it first blocks for a
// terminal state; a failed job's HTTP status comes from its typed error so
// the sentinel → status contract holds end to end.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *job) {
	if r.URL.Query().Get("wait") == "" {
		snap := j.snapshot()
		status := http.StatusAccepted
		if snap.Terminal() {
			status = http.StatusOK
		}
		writeJSON(w, status, snap)
		return
	}
	select {
	case <-r.Context().Done():
		s.writeError(w, fmt.Errorf("service: wait aborted: %w", r.Context().Err()))
		return
	case <-j.done:
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
	writeJSON(w, http.StatusOK, snap)
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
	if r.URL.Query().Get("wait") != "" {
		s.respondJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]client.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
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
	wire := j.wire
	j.mu.Unlock()
	if err := s.store.Put(&wire, j.req); err != nil {
		s.failJob(j, fmt.Errorf("%w: service: persist: %v", errdefs.ErrInternal, err))
		return
	}

	if val, ok := s.cache.Get(key); ok {
		s.reg.Counter("service.cache.hits").Inc()
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
			s.reg.Counter("service.cache.hits").Inc()
			return val, nil
		}
		s.reg.Counter("service.engine.searches").Inc()
		span := s.reg.StartSpan("service.engine")
		defer span.End()
		val, err := s.engine(ctx, j.req)
		if err == nil {
			s.cache.Put(key, val)
			s.reg.Gauge("service.cache.entries").Set(float64(s.cache.Len()))
		}
		return val, err
	})
	if shared {
		s.reg.Counter("service.singleflight.shared").Inc()
	}
	switch {
	case err == nil:
		s.finish(j, val, false, shared)
	case s.ctx.Err() != nil:
		// Shutdown, not failure: revert to pending on disk so a restarted
		// daemon re-runs the job. Waiters are released by their own request
		// contexts when the listener closes.
		j.mu.Lock()
		j.wire.State = client.StatePending
		wire := j.wire
		j.mu.Unlock()
		_ = s.store.Put(&wire, j.req)
	default:
		s.failJob(j, err)
	}
}

// finish moves a job to done with the given result document.
func (s *Server) finish(j *job, val json.RawMessage, cacheHit, shared bool) {
	j.mu.Lock()
	j.wire.State = client.StateDone
	j.wire.Result = val
	j.wire.CacheHit = cacheHit
	j.wire.Shared = shared
	wire := j.wire
	j.mu.Unlock()
	_ = s.store.Put(&wire, j.req)
	s.reg.Counter("service.jobs.completed").Inc()
	close(j.done)
}

// failJob moves a job to failed with its typed wire error.
func (s *Server) failJob(j *job, err error) {
	wireErr, _ := client.Encode(err)
	j.mu.Lock()
	j.wire.State = client.StateFailed
	j.wire.Error = wireErr
	wire := j.wire
	j.mu.Unlock()
	_ = s.store.Put(&wire, j.req)
	s.reg.Counter("service.jobs.failed").Inc()
	close(j.done)
}

// runEngine executes one request on the real planning engine.
func (s *Server) runEngine(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error) {
	switch req.Kind {
	case client.KindPlan:
		p := autopipe.NewPlanner(
			autopipe.WithParallelism(s.cfg.Parallelism),
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

// parseDeadline converts the client's relative-milliseconds deadline header
// into an absolute give-up time. Empty means no caller deadline; anything
// that is not a positive integer is a caller bug worth rejecting loudly.
func parseDeadline(header string) (time.Time, error) {
	if header == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(header, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}, fmt.Errorf("%w: service: malformed %s header %q (want positive relative milliseconds)",
			errdefs.ErrBadConfig, client.DeadlineHeader, header)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Write errors mean the client went away; there is nobody to tell.
	_ = enc.Encode(v)
}

// parseID extracts the sequence number from a "job-%08d" ID.
func parseID(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
