package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/errdefs"
)

// FuzzSubmit posts arbitrary bytes twice as the body of POST /v1/jobs (no
// ?wait) to a fresh in-process daemon with no workers running. The submit
// handler is the daemon's untrusted-input boundary: whatever the body, it
// must not panic or answer 5xx, an accepted body must come back 202 with a
// pending job document, and every rejection must decode on the client side
// to a typed error wrapping ErrBadConfig. The second post of an accepted
// body is answered from the submit memo, so it must get the first post's
// status and key, and a rejected body the same rejection. Run with
// `go test -run='^$' -fuzz=FuzzSubmit ./internal/service`.
func FuzzSubmit(f *testing.F) {
	for _, req := range []client.SubmitRequest{
		testPlanBody(0),
		{Kind: client.KindSimulate, Profile: &autopipe.StageProfile{Fwd: []float64{1, 2}, Bwd: []float64{2, 4}, Comm: 0.1, Micro: 4}},
		{Kind: client.KindSlice, Profile: &autopipe.StageProfile{Fwd: []float64{1}, Bwd: []float64{2}, Micro: 2}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"kind":"slice","profile":{"Fwd":[1],"Bwd":[1,2],"Comm":0,"Micro":1}}`))
	f.Add([]byte(`{"kind":"plan","plan":{"budget":-1}}`))
	f.Add([]byte(`{"kind":"transmogrify"}`))
	f.Add([]byte(`{"kind":"simulate","extra":1}`))
	f.Add([]byte(`{"kind":"simulate"}{"kind":"slice"}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// answer posts body and returns the status with the job's key or
		// the rejection's message.
		answer := func() (int, string) {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			switch status := rec.Code; {
			case status >= 500:
				t.Fatalf("status %d for body %q: %s", status, body, rec.Body.Bytes())
			case status == http.StatusAccepted:
				var job client.Job
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
					t.Fatalf("accepted body %q: undecodable job document: %v", body, err)
				}
				if job.State != client.StatePending || job.Key == "" {
					t.Fatalf("accepted body %q: job %+v, want a keyed pending job", body, job)
				}
				return status, job.Key
			case status >= 400:
				var doc struct {
					Error *client.Error `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Error == nil {
					t.Fatalf("rejection %d for body %q is not a wire error envelope: %s", status, body, rec.Body.Bytes())
				}
				if !errors.Is(doc.Error, errdefs.ErrBadConfig) {
					t.Fatalf("rejection %d for body %q decodes to %v, want ErrBadConfig", status, body, doc.Error)
				}
				return status, doc.Error.Message
			default:
				t.Fatalf("status %d for body %q, want 202 or a 4xx rejection", status, body)
			}
			return 0, ""
		}
		status, detail := answer()
		if status2, detail2 := answer(); status2 != status || detail2 != detail {
			t.Fatalf("body %q: first post answered %d %q, second %d %q", body, status, detail, status2, detail2)
		}
	})
}

// FuzzParseDeadline drives the deadline-header parser with arbitrary
// strings: an accepted header gives no deadline or one after the call
// began, and a rejected one wraps ErrBadConfig. Run with
// `go test -run='^$' -fuzz=FuzzParseDeadline ./internal/service`.
func FuzzParseDeadline(f *testing.F) {
	for _, h := range []string{"", "1", "250", "-5", "0", "1.5", "banana", "9223372036854",
		"9300000000000", "9223372036854775807"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, header string) {
		before := time.Now()
		deadline, err := parseDeadline(header)
		if err != nil {
			if !errors.Is(err, errdefs.ErrBadConfig) {
				t.Fatalf("header %q: error %v does not wrap ErrBadConfig", header, err)
			}
			return
		}
		if !deadline.IsZero() && !deadline.After(before) {
			t.Fatalf("header %q: deadline %v is not after %v", header, deadline, before)
		}
	})
}

// FuzzParseChaos drives the chaos-plan parser with arbitrary bytes: it must
// never panic, every error must wrap ErrBadConfig with a nil plan, and every
// accepted plan must re-validate, survive an encode/parse round trip
// unchanged, and evaluate its rules without panicking. Run with
// `go test -run='^$' -fuzz=FuzzParseChaos ./internal/service`.
func FuzzParseChaos(f *testing.F) {
	f.Add([]byte(`{"chaos":[]}`))
	f.Add([]byte(`{"name":"x","seed":42,"chaos":[{"kind":"latency","latency_ms":5,"prob":0.1},{"kind":"error","status":429,"first":2,"count":3}]}`))
	f.Add([]byte(`{"chaos":[{"kind":"truncate","method":"POST","path":"/v1/jobs","prob":0.02},{"kind":"reset"}]}`))
	f.Add([]byte(`{"chaos":[{"kind":"error","status":200}]}`))
	f.Add([]byte(`{"chaos":[],"faults":[]}`))
	f.Add([]byte(`{"chaos":[]} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseChaos(data)
		if err != nil {
			if p != nil {
				t.Fatal("non-nil plan returned with an error")
			}
			if !errors.Is(err, errdefs.ErrBadConfig) {
				t.Fatalf("parse error does not wrap ErrBadConfig: %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		again, err := ParseChaos(enc)
		if err != nil {
			t.Fatalf("re-encoded plan %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v", p, again)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
		for i := range p.Chaos {
			for _, n := range []uint64{0, 1, 1 << 40} {
				p.Chaos[i].applies(req, p.Seed, uint64(i), n)
			}
		}
	})
}
