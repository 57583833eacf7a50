package client_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/service"
)

// TestDaemonDoneDocumentsParseDirectly drives a real daemon through every
// way it answers with a done job: the waited miss, the waited and unwaited
// cache hits, GET and GET ?wait=1 for each kind. The client must read each
// answer without reflection, to the job encoding/json decodes, so a change
// to the daemon's writer cannot quietly send the client back to
// json.Unmarshal. Results holding escaped characters are covered by
// done_test.go's planResult and FuzzParseDone.
func TestDaemonDoneDocumentsParseDirectly(t *testing.T) {
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	plan := func(globalBatch int) client.SubmitRequest {
		return client.SubmitRequest{Kind: client.KindPlan, Plan: &client.PlanPayload{
			Model:   autopipe.GPT2_345M(),
			Run:     autopipe.Run{MicroBatch: 4, GlobalBatch: globalBatch, Checkpoint: true},
			Cluster: cluster,
		}}
	}

	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	fetch := func(method, path string, req *client.SubmitRequest) []byte {
		t.Helper()
		var body io.Reader
		if req != nil {
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			body = bytes.NewReader(data)
		}
		hreq, err := http.NewRequest(method, hs.URL+path, body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		}
		return data
	}
	check := func(what string, doc []byte) client.Job {
		t.Helper()
		var want client.Job
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatalf("%s: undecodable %s: %v", what, doc, err)
		}
		var got client.Job
		if !client.ParseDone(doc, &got) {
			t.Errorf("%s: the client decodes the daemon's document with reflection: %s", what, doc)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nparsed    %+v\nunmarshal %+v", what, got, want)
		}
		return want
	}

	profile := &autopipe.StageProfile{Fwd: []float64{1, 2}, Bwd: []float64{2, 4}, Comm: 0.1, Micro: 4}
	for _, req := range []client.SubmitRequest{
		plan(256),
		{Kind: client.KindSimulate, Profile: profile},
		{Kind: client.KindSlice, Profile: profile},
	} {
		miss := check(req.Kind+" miss", fetch(http.MethodPost, "/v1/jobs?wait=1", &req))
		if hit := check(req.Kind+" hit", fetch(http.MethodPost, "/v1/jobs?wait=1", &req)); !hit.CacheHit {
			t.Errorf("%s: resubmit was not a cache hit", req.Kind)
		}
		check(req.Kind+" unwaited hit", fetch(http.MethodPost, "/v1/jobs", &req))
		check(req.Kind+" GET", fetch(http.MethodGet, "/v1/jobs/"+miss.ID, nil))
		check(req.Kind+" GET ?wait=1", fetch(http.MethodGet, "/v1/jobs/"+miss.ID+"?wait=1", nil))
	}
}
