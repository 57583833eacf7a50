package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autopipe/client"
	"autopipe/internal/obs"
	"autopipe/internal/service"
)

// daemon is an in-process autopiped: service.New served on a loopback
// listener and driven through client.New, as a user would drive it.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	ln     *countingListener
	c      *client.Client
	served chan error
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// spanHeader carries a traced request's "req/parent" span reference from the
// client transport to the handler middleware.
const spanHeader = "X-Perfbench-Span"

type spanRefKey struct{}

type spanRef struct{ req, parent uint64 }

// spanTransport stamps the span reference of a traced call on its request.
// It wraps http.DefaultTransport, the transport client.New uses by default,
// so the connection pool under test is the same.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanRefKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.req, ref.parent))
	return t.base.RoundTrip(req)
}

// handlerSpans records a service.handler span around every stamped request.
func handlerSpans(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var ref spanRef
		if _, err := fmt.Sscanf(req.Header.Get(spanHeader), "%d/%d", &ref.req, &ref.parent); err != nil {
			next.ServeHTTP(w, req)
			return
		}
		rec.timed("service.handler", ref.req, ref.parent, func() { next.ServeHTTP(w, req) })
	})
}

// startDaemon boots a daemon at default settings. With a recorder, the
// handler and the client transport are wrapped to record spans.
func startDaemon(rec *recorder) (*daemon, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	srv.Start()
	d := &daemon{srv: srv, ln: &countingListener{Listener: ln}, served: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	// One attempt per request, so a refusal counts as a failure instead of
	// a retried success.
	opts := []client.Option{client.WithRetries(0), client.WithCircuitBreaker(0, 0)}
	if rec != nil {
		h = handlerSpans(rec, h)
		opts = append(opts, client.WithHTTPClient(&http.Client{
			Timeout: 60 * time.Second, Transport: spanTransport{http.DefaultTransport}}))
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(d.ln) }()
	if d.c, err = client.New("http://"+ln.Addr().String(), opts...); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close shuts the HTTP server down, stops the service's workers, and waits
// for the serving goroutine to end.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // every caller has returned; a timeout leaves nothing to report to
	d.srv.Close()
	<-d.served
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// send submits one request and waits for its job. A traced call records a
// client.request span; the middleware records the service.handler span under
// it.
func (d *daemon) send(ctx context.Context, rec *recorder, traced bool, req client.SubmitRequest) (*client.Job, error) {
	if !traced {
		return d.c.Submit(ctx, req)
	}
	ref := spanRef{req: rec.newID()}
	s := span{ID: rec.newID(), Req: ref.req, Name: "client.request"}
	ref.parent = s.ID
	s.Start = rec.now()
	job, err := d.c.Submit(context.WithValue(ctx, spanRefKey{}, ref), req)
	s.End = rec.now()
	rec.add(s)
	return job, err
}

// svcWindow holds the counters read when a measured window opens.
type svcWindow struct {
	d       *daemon
	at      time.Duration // recorder time
	mem     runtime.MemStats
	cpu     cpuSample
	accepts int64
	reg     obs.Snapshot
}

func openWindow(r *runCtx, d *daemon) svcWindow {
	w := svcWindow{d: d, accepts: d.ln.accepts.Load(), reg: d.srv.Registry().Snapshot()}
	if r.rec != nil {
		w.at = r.rec.now()
	}
	runtime.ReadMemStats(&w.mem)
	w.cpu = readCPU()
	return w
}

// report sets the service, client and (with withRuntime) runtime per-layer
// metrics for the n requests sent in the window.
func (w svcWindow) report(r *runCtx, n int, withRuntime bool) error {
	if r.rec == nil {
		return nil
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cpu := readCPU()
	snap := w.d.srv.Registry().Snapshot()
	delta := func(name string) float64 { return snap.Counters[name] - w.reg.Counters[name] }
	note := fmt.Sprintf("(%d requests in the window)", n)
	perReq := float64(max(n, 1))

	var spans []span
	for _, s := range r.rec.spans() {
		if s.Start >= w.at && (s.Name == "client.request" || s.Name == "service.handler") {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	var handler, net []float64
	for _, s := range spans {
		if s.Name == "service.handler" {
			handler = append(handler, us(s.dur()))
		} else {
			net = append(net, us(self[s.ID]))
		}
	}
	h50, err := pct(handler, 0.5)
	if err != nil {
		return fmt.Errorf("service.handler_us_p50: %w", err)
	}
	h99, err := pct(handler, 0.99)
	if err != nil {
		return fmt.Errorf("service.handler_us_p99: %w", err)
	}
	hn := fmt.Sprintf("(%d traced requests)", len(handler))
	r.set("service.handler_us_p50", h50, hn)
	r.set("service.handler_us_p99", h99, hn)
	r.set("client.net_us_p50", median(net), fmt.Sprintf("(round trip minus handler, %d traced requests)", len(net)))
	r.set("client.conns_per_kreq", float64(w.d.ln.accepts.Load()-w.accepts)*1000/perReq, note)

	hits, misses := delta("service.cache.hits"), delta("service.cache.misses")
	r.set("service.cache_hit_ratio", hits/max(hits+misses, 1), fmt.Sprintf("(%g hits, %g misses)", hits, misses))
	r.set("service.engine_searches", delta("service.engine.searches"), note)
	r.set("service.singleflight_shared", delta("service.singleflight.shared"), note)
	r.set("service.refused", delta("service.admission.ratelimited")+delta("service.admission.shed"), note)
	eng := snap.Histograms["service.engine.seconds"]
	r.set("service.engine_ms_p50", eng.P50*1e3,
		fmt.Sprintf("(service.engine.seconds over the daemon's life, %d searches, power-of-two buckets)", eng.Count))
	if withRuntime {
		r.set("runtime.alloc_kb_per_req", float64(mem.TotalAlloc-w.mem.TotalAlloc)/1024/perReq, "(whole process: client, server and generator)")
		r.set("runtime.gc_cpu_share", gcShare(w.cpu, cpu), "(GC share of the process's CPU capacity in the window)")
	}
	return nil
}

// opErrors keeps the first few errors of failed operations for the output.
type opErrors struct {
	mu   sync.Mutex
	msgs []string
}

func (e *opErrors) add(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.msgs) < 5 {
		e.msgs = append(e.msgs, fmt.Sprintf(format, args...))
	}
}

func (e *opErrors) print(r *runCtx) {
	for _, m := range e.msgs {
		fmt.Fprintf(r.out, "failed: %s\n", m)
	}
}

// decodeAnswer turns a plan job's result document into the canonical answer
// planOut.answer gives for the library plan.
func decodeAnswer(raw json.RawMessage) string {
	var res client.PlanResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return "undecodable: " + err.Error()
	}
	if res.Spec == nil {
		return "no spec"
	}
	return canonical(res.Spec)
}
