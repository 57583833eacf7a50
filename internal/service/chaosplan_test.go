package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"autopipe/client"
	"autopipe/internal/errdefs"
	"autopipe/internal/obs"
)

// This file holds a seedable chaos plan injecting HTTP-level failures
// (latency, 5xx errors, connection resets, truncated responses) in front of
// the daemon, so the client's resilience machinery — retries, backoff, Retry-After, circuit
// breaker — is exercised against the exact failure modes a flaky network
// produces, deterministically. A plan plus its seed fully determines every
// injection decision: probabilistic rules are resolved by a splitmix64 hash
// of (seed, rule index, request index), never a shared random stream, so a
// chaotic run replays byte-for-byte. It is test code: TestSoakWithChaos
// wraps each daemon incarnation with Chaos, and FuzzParseChaos and
// TestChaosFixtures own the plan format.

// ChaosKind names a failure class of the chaos DSL.
type ChaosKind string

const (
	// ChaosLatency sleeps LatencyMs before serving the request normally — a
	// congested or GC-pausing daemon.
	ChaosLatency ChaosKind = "latency"
	// ChaosError short-circuits with an injected error response (Status,
	// default 503) in the wire-error envelope, Retry-After: 1 — an
	// overloaded or mid-deploy daemon.
	ChaosError ChaosKind = "error"
	// ChaosReset severs the TCP connection without a response — a crashed
	// process or dropped NAT entry.
	ChaosReset ChaosKind = "reset"
	// ChaosTruncate serves the real response's headers and the first half of
	// its body, then aborts — a torn write from a dying daemon.
	ChaosTruncate ChaosKind = "truncate"
)

// ChaosRule is one injection rule. Requests are numbered 0,1,2,… in arrival
// order at the middleware; a rule fires on request n when its Method/Path
// filters match, n falls in the [First, First+Count) window (Count 0 keeps
// the window open-ended), and — with Prob set — the seeded coin toss for
// (rule, n) lands under Prob.
type ChaosRule struct {
	Kind ChaosKind `json:"kind"`
	// Method, when non-empty, restricts the rule to one HTTP method.
	Method string `json:"method,omitempty"`
	// Path, when non-empty, restricts the rule to URL paths with this prefix.
	Path string `json:"path,omitempty"`
	// First is the first request index (0-based) the rule may fire on.
	First int `json:"first,omitempty"`
	// Count bounds how many request indices the window spans; 0 = unbounded.
	Count int `json:"count,omitempty"`
	// Prob, if positive, fires probabilistically inside the window, resolved
	// deterministically from the plan seed, the rule index, and the request
	// index. 0 fires on every request in the window.
	Prob float64 `json:"prob,omitempty"`
	// LatencyMs is the injected delay for latency rules.
	LatencyMs int `json:"latency_ms,omitempty"`
	// Status is the injected HTTP status for error rules; 0 means 503.
	Status int `json:"status,omitempty"`
}

// validate reports the first structural problem with the rule.
func (c *ChaosRule) validate(i int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: chaos rule %d (%s): %s", errdefs.ErrBadConfig, i, c.Kind, fmt.Sprintf(format, args...))
	}
	if c.First < 0 {
		return bad("negative first %d", c.First)
	}
	if c.Count < 0 {
		return bad("negative count %d", c.Count)
	}
	if c.Prob < 0 || c.Prob > 1 {
		return bad("probability %g out of [0,1]", c.Prob)
	}
	switch c.Kind {
	case ChaosLatency:
		if c.LatencyMs <= 0 {
			return bad("latency_ms %d must be positive", c.LatencyMs)
		}
		if c.Status != 0 {
			return bad("status belongs to error rules")
		}
	case ChaosError:
		if c.Status != 0 && (c.Status < 400 || c.Status > 599) {
			return bad("status %d must be a 4xx/5xx", c.Status)
		}
		if c.LatencyMs != 0 {
			return bad("latency_ms belongs to latency rules")
		}
	case ChaosReset, ChaosTruncate:
		if c.LatencyMs != 0 {
			return bad("latency_ms belongs to latency rules")
		}
		if c.Status != 0 {
			return bad("status belongs to error rules")
		}
	default:
		return bad("unknown kind")
	}
	return nil
}

// applies reports whether the rule fires on request n. Pure in (seed, rule
// index, n) and the request's method/path — no mutable state, so the same
// plan over the same request sequence injects the same faults.
func (c *ChaosRule) applies(r *http.Request, seed, rule, n uint64) bool {
	if c.Method != "" && c.Method != r.Method {
		return false
	}
	if c.Path != "" && !strings.HasPrefix(r.URL.Path, c.Path) {
		return false
	}
	if n < uint64(c.First) {
		return false
	}
	if c.Count > 0 && n >= uint64(c.First)+uint64(c.Count) {
		return false
	}
	if c.Prob > 0 && chaosUnit(seed, rule, n) >= c.Prob {
		return false
	}
	return true
}

// ChaosPlan is a complete, seedable chaos plan. The JSON form uses the
// top-level key "chaos".
type ChaosPlan struct {
	// Name labels the plan in logs and reports.
	Name string `json:"name,omitempty"`
	// Seed resolves every probabilistic decision; two middlewares built from
	// the same plan make identical decisions over the same request sequence.
	Seed uint64 `json:"seed,omitempty"`
	// Chaos is the rule list; all matching rules are consulted in order and
	// the first firing rule wins (a latency rule delays, then matching
	// continues — latency composes with a downstream error/reset/truncate).
	Chaos []ChaosRule `json:"chaos"`
}

// Validate reports the first structural problem with the plan. Errors wrap
// errdefs.ErrBadConfig.
func (p *ChaosPlan) Validate() error {
	for i := range p.Chaos {
		if err := p.Chaos[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParseChaos decodes and validates a JSON-encoded chaos plan. Unknown fields
// are rejected so a typoed plan fails loudly instead of silently injecting
// nothing. Errors wrap errdefs.ErrBadConfig.
func ParseChaos(data []byte) (*ChaosPlan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p ChaosPlan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: service: parse chaos plan: %v", errdefs.ErrBadConfig, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: service: trailing data after chaos plan document", errdefs.ErrBadConfig)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadChaos reads and parses a chaos plan from a JSON file.
func LoadChaos(path string) (*ChaosPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	p, err := ParseChaos(data)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", path, err)
	}
	return p, nil
}

// Chaos wraps next with the plan's injections. A nil or empty plan returns
// next untouched. Injections are counted on service.chaos.injected and
// service.chaos.<kind>, so /metrics shows what a chaotic run endured.
func Chaos(next http.Handler, plan *ChaosPlan, reg *obs.Registry) http.Handler {
	if plan == nil || len(plan.Chaos) == 0 {
		return next
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := seq.Add(1) - 1
		for i := range plan.Chaos {
			rule := &plan.Chaos[i]
			if !rule.applies(r, plan.Seed, uint64(i), n) {
				continue
			}
			reg.Counter("service.chaos.injected").Inc()
			reg.Counter("service.chaos." + string(rule.Kind)).Inc()
			switch rule.Kind {
			case ChaosLatency:
				time.Sleep(time.Duration(rule.LatencyMs) * time.Millisecond)
				continue // latency composes with later rules and the real handler
			case ChaosError:
				status := rule.Status
				if status == 0 {
					status = http.StatusServiceUnavailable
				}
				w.Header().Set("Retry-After", "1")
				writeJSON(w, status, struct {
					Error *client.Error `json:"error"`
				}{&client.Error{Code: chaosCode(status), Message: "chaos: injected error"}})
				return
			case ChaosReset:
				chaosReset(w)
				return
			case ChaosTruncate:
				chaosTruncate(next, w, r)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// chaosCode picks the wire-error code matching an injected status, so the
// client's typed-error machinery classifies chaos exactly like real failures.
func chaosCode(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return client.CodeRateLimited
	case http.StatusServiceUnavailable:
		return client.CodeUnavailable
	default:
		return client.CodeInternal
	}
}

// chaosReset severs the connection without an HTTP response: hijack the TCP
// conn and close it. Writers that cannot hijack (HTTP/2, recorders) abort
// the handler instead — the client still sees a transport error.
func chaosReset(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			_ = conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// chaosTruncate runs the real handler against a buffer, replays its headers
// and the first half of its body, then aborts the connection mid-stream —
// the client reads a torn document and must treat it as a failed attempt.
func chaosTruncate(next http.Handler, w http.ResponseWriter, r *http.Request) {
	rec := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	next.ServeHTTP(rec, r)
	for k, v := range rec.header {
		w.Header()[k] = v
	}
	// The advertised length must not match what we send, or the truncation
	// would read as a complete short document.
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.status)
	body := rec.buf.Bytes()
	_, _ = w.Write(body[:len(body)/2])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// bufferedResponse is the minimal ResponseWriter used to capture the real
// response before truncating it.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.buf.Write(p) }
func (b *bufferedResponse) WriteHeader(status int)      { b.status = status }

// chaosMix and chaosUnit are a splitmix64-style finalizer over (seed, rule,
// n) into [0,1), the deterministic substitute for a shared random stream,
// immune to request-interleaving effects.
func chaosMix(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b
	x ^= x >> 29
	return x
}

func chaosUnit(seed, rule, n uint64) float64 {
	x := seed
	x = chaosMix(x, rule+1)
	x = chaosMix(x, n+1)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
