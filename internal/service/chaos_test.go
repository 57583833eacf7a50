package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autopipe/internal/errdefs"
	"autopipe/internal/obs"
)

// okHandler is a plain inner handler the chaos middleware wraps in tests.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok": true, "padding": "0123456789012345678901234567890123456789"}`)
	})
}

// TestChaosParseValidation pins the plan DSL's structural validation.
func TestChaosParseValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		ok   bool
	}{
		{"empty plan", `{"chaos": []}`, true},
		{"latency", `{"chaos": [{"kind": "latency", "latency_ms": 5}]}`, true},
		{"error windowed", `{"chaos": [{"kind": "error", "status": 503, "first": 2, "count": 3}]}`, true},
		{"reset prob", `{"seed": 7, "chaos": [{"kind": "reset", "prob": 0.5}]}`, true},
		{"truncate", `{"chaos": [{"kind": "truncate", "path": "/v1/jobs"}]}`, true},
		{"unknown kind", `{"chaos": [{"kind": "teleport"}]}`, false},
		{"unknown field", `{"chaos": [{"kind": "latency", "latency_ms": 5, "bogus": 1}]}`, false},
		{"latency without ms", `{"chaos": [{"kind": "latency"}]}`, false},
		{"error with 2xx", `{"chaos": [{"kind": "error", "status": 200}]}`, false},
		{"reset with status", `{"chaos": [{"kind": "reset", "status": 503}]}`, false},
		{"prob out of range", `{"chaos": [{"kind": "reset", "prob": 1.5}]}`, false},
		{"negative first", `{"chaos": [{"kind": "reset", "first": -1}]}`, false},
		{"trailing garbage", `{"chaos": []} tail`, false},
		{"not json", `{chaos`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseChaos([]byte(tc.doc))
			if tc.ok && err != nil {
				t.Errorf("ParseChaos = %v, want ok", err)
			}
			if !tc.ok && !errors.Is(err, errdefs.ErrBadConfig) {
				t.Errorf("ParseChaos = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestChaosFixtures holds the checked-in chaos plans to the outcomes the
// root fixture manifest declares for them: testdata/chaos_basic.json must
// parse, and testdata/reject/chaos_bad_prob.json must be rejected with
// ErrBadConfig. The parser is test code in this package, so this test, not
// the manifest, runs it over both files.
func TestChaosFixtures(t *testing.T) {
	root := filepath.Join("..", "..", "testdata")
	if _, err := LoadChaos(filepath.Join(root, "chaos_basic.json")); err != nil {
		t.Errorf("chaos_basic.json rejected: %v", err)
	}
	if _, err := LoadChaos(filepath.Join(root, "reject", "chaos_bad_prob.json")); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("chaos_bad_prob.json: got %v, want a rejection wrapping ErrBadConfig", err)
	}
}

// TestChaosDeterministic is the acceptance check for seeded chaos: the same
// plan and seed produce the same injection decisions over the same request
// sequence — and a different seed produces a different (but equally
// repeatable) sequence.
func TestChaosDeterministic(t *testing.T) {
	run := func(seed uint64, n int) []bool {
		plan := &ChaosPlan{Seed: seed, Chaos: []ChaosRule{{Kind: ChaosError, Prob: 0.5}}}
		h := Chaos(okHandler(), plan, obs.NewRegistry())
		out := make([]bool, n)
		for i := range out {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
			out[i] = rec.Code == http.StatusServiceUnavailable
		}
		return out
	}
	const n = 64
	a, b := run(42, n), run(42, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a, b)
		}
	}
	var injected int
	for _, hit := range a {
		if hit {
			injected++
		}
	}
	if injected == 0 || injected == n {
		t.Errorf("prob 0.5 injected %d/%d — the hash is not mixing", injected, n)
	}
	c := run(1337, n)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical decisions")
	}
}

// TestChaosWindowAndFilters proves the First/Count window and method/path
// filters gate injection exactly.
func TestChaosWindowAndFilters(t *testing.T) {
	plan := &ChaosPlan{Chaos: []ChaosRule{{
		Kind: ChaosError, Method: http.MethodPost, Path: "/v1/jobs", First: 1, Count: 2,
	}}}
	reg := obs.NewRegistry()
	h := Chaos(okHandler(), plan, reg)
	do := func(method, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code
	}
	// Request 0: before the window.
	if code := do(http.MethodPost, "/v1/jobs"); code != http.StatusOK {
		t.Errorf("request 0: code %d, want 200 (window starts at 1)", code)
	}
	// Request 1: in window but wrong method, then wrong path — both pass.
	if code := do(http.MethodGet, "/v1/jobs"); code != http.StatusOK {
		t.Errorf("GET in window: code %d, want 200", code)
	}
	if code := do(http.MethodPost, "/healthz"); code != http.StatusOK {
		t.Errorf("other path in window: code %d, want 200", code)
	}
	// Requests 3 and 4 are past the [1,3) window... request indices count
	// every request through the middleware, so indices 1 and 2 were consumed
	// by the filtered requests above. Only a matching request inside the
	// window is injected — none was, and the window is now closed.
	if code := do(http.MethodPost, "/v1/jobs"); code != http.StatusOK {
		t.Errorf("request past window: code %d, want 200", code)
	}
	if v := reg.Counter("service.chaos.injected").Value(); v != 0 {
		t.Errorf("injected %v faults through closed filters", v)
	}

	// A fresh middleware with matching traffic: exactly requests 1 and 2 hit.
	reg2 := obs.NewRegistry()
	h2 := Chaos(okHandler(), plan, reg2)
	codes := make([]int, 4)
	for i := range codes {
		rec := httptest.NewRecorder()
		h2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", nil))
		codes[i] = rec.Code
	}
	want := []int{http.StatusOK, http.StatusServiceUnavailable, http.StatusServiceUnavailable, http.StatusOK}
	for i := range codes {
		if codes[i] != want[i] {
			t.Errorf("request %d: code %d, want %d", i, codes[i], want[i])
		}
	}
	if v := reg2.Counter("service.chaos.injected").Value(); v != 2 {
		t.Errorf("service.chaos.injected = %v, want 2", v)
	}
	if v := reg2.Counter("service.chaos.error").Value(); v != 2 {
		t.Errorf("service.chaos.error = %v, want 2", v)
	}
}

// TestChaosErrorEnvelope proves injected errors speak the wire contract:
// typed envelope, mapped code, Retry-After present.
func TestChaosErrorEnvelope(t *testing.T) {
	plan := &ChaosPlan{Chaos: []ChaosRule{{Kind: ChaosError, Count: 1}}}
	h := Chaos(okHandler(), plan, obs.NewRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", rec.Header().Get("Retry-After"))
	}
	we := decodeWireError(t, rec.Body.Bytes())
	if we.Code != "unavailable" {
		t.Errorf("code = %q, want unavailable", we.Code)
	}
}

// TestChaosLatencyComposes proves a latency rule delays but still serves,
// and composes with the request passing through to the real handler.
func TestChaosLatencyComposes(t *testing.T) {
	plan := &ChaosPlan{Chaos: []ChaosRule{{Kind: ChaosLatency, LatencyMs: 30, Count: 1}}}
	reg := obs.NewRegistry()
	h := Chaos(okHandler(), plan, reg)
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d, want 200 (latency must not eat the response)", rec.Code)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("request took %v, want >= ~30ms of injected latency", elapsed)
	}
	if v := reg.Counter("service.chaos.latency").Value(); v != 1 {
		t.Errorf("service.chaos.latency = %v, want 1", v)
	}
}

// TestChaosResetAndTruncateOverWire proves the two connection-level faults
// against a real TCP listener: reset yields a transport error with no
// response, truncate yields a torn body the client cannot fully read.
func TestChaosResetAndTruncateOverWire(t *testing.T) {
	t.Run("reset", func(t *testing.T) {
		plan := &ChaosPlan{Chaos: []ChaosRule{{Kind: ChaosReset, Count: 1}}}
		hs := httptest.NewServer(Chaos(okHandler(), plan, obs.NewRegistry()))
		defer hs.Close()
		if _, err := http.Get(hs.URL + "/v1/jobs"); err == nil {
			t.Fatalf("reset request succeeded, want a transport error")
		}
		// The next request (index 1, past the window) is served normally.
		resp, err := http.Get(hs.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("post-reset request: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("post-reset code = %d, want 200", resp.StatusCode)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		plan := &ChaosPlan{Chaos: []ChaosRule{{Kind: ChaosTruncate, Count: 1}}}
		hs := httptest.NewServer(Chaos(okHandler(), plan, obs.NewRegistry()))
		defer hs.Close()
		resp, err := http.Get(hs.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("truncate request: %v (headers should arrive)", err)
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatalf("read torn body succeeded with %d bytes — the abort never happened", len(data))
		}
		if len(data) == 0 {
			t.Errorf("no partial body arrived before the abort")
		}
		if strings.Contains(string(data), `"padding"`) && strings.HasSuffix(strings.TrimSpace(string(data)), "}") {
			t.Errorf("body looks complete: %q", data)
		}
		// The wrapped handler still works for the next request.
		resp2, err := http.Get(hs.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("post-truncate request: %v", err)
		}
		defer resp2.Body.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Errorf("post-truncate code = %d, want 200", resp2.StatusCode)
		}
	})
}

// TestChaosNilPlanPassthrough proves nil/empty plans cost nothing.
func TestChaosNilPlanPassthrough(t *testing.T) {
	inner := okHandler()
	if h := Chaos(inner, nil, nil); fmt.Sprintf("%p", h) != fmt.Sprintf("%p", inner) {
		t.Errorf("nil plan did not return the inner handler unchanged")
	}
	if h := Chaos(inner, &ChaosPlan{}, nil); fmt.Sprintf("%p", h) != fmt.Sprintf("%p", inner) {
		t.Errorf("empty plan did not return the inner handler unchanged")
	}
}
