package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"autopipe"
)

// planResult is a result in the plan cache's form: compact and HTML-escaped,
// as encoding/json writes a RawMessage.
var planResult = json.RawMessage(`{"spec":{"stages":[{"first":0,"last":11}],"note":"\u003cb\u003e \u0026 \u2028"}}`)

// doneDoc is the daemon's document for j: AppendDonePrefix, the result,
// DoneEnd.
func doneDoc(j *Job) []byte {
	doc := AppendDonePrefix(nil, j)
	doc = append(doc, j.Result...)
	return append(doc, DoneEnd...)
}

// doneJobs is every done job shape the daemon writes: each kind, each
// cacheHit/shared combination, keyed and unkeyed.
func doneJobs() []Job {
	var jobs []Job
	for _, kind := range []string{KindPlan, KindSimulate, KindSlice} {
		for _, hit := range []bool{false, true} {
			for _, shared := range []bool{false, true} {
				for _, key := range []string{"sha256:0123abcd", ""} {
					jobs = append(jobs, Job{ID: "job-00000042", Kind: kind, State: StateDone, Key: key,
						CacheHit: hit, Shared: shared, Result: planResult})
				}
			}
		}
	}
	return jobs
}

// TestDoneDocumentRoundTrip holds the done-document format to both sides of
// the wire: the writer's bytes equal json.NewEncoder(w).Encode of the job,
// and parseDone reads every daemon-made job back without reflection, to
// what json.Unmarshal gives. A job whose strings need escaping is written
// as the encoder writes it and left to encoding/json.
func TestDoneDocumentRoundTrip(t *testing.T) {
	jobs := doneJobs()
	odd := Job{ID: "job-<3>&\"\\\u2028\x01é", Kind: KindPlan, State: StateDone, Key: "k\ttab", Result: planResult}
	jobs = append(jobs, odd)
	for _, j := range jobs {
		doc := doneDoc(&j)
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(j); err != nil {
			t.Fatalf("encode %+v: %v", j, err)
		}
		if !bytes.Equal(doc, enc.Bytes()) {
			t.Errorf("%+v:\nwriter  %q\nencoder %q", j, doc, enc.Bytes())
		}
		var got Job
		accepted := parseDone(doc, &got)
		if j.ID == odd.ID {
			if accepted {
				t.Errorf("parseDone accepted escaped strings: %s", doc)
			}
			continue
		}
		if !accepted {
			t.Errorf("parseDone rejected the daemon's document %s", doc)
			continue
		}
		var want Job
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatalf("unmarshal %s: %v", doc, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseDone %s:\ngot  %+v\nwant %+v", doc, got, want)
		}
	}
}

// TestParseDoneFallsBack lists documents outside the daemon's exact done
// form. parseDone leaves each to encoding/json, and the client decodes it
// exactly as json.Unmarshal does, or fails with the same undecodable
// response error.
func TestParseDoneFallsBack(t *testing.T) {
	for _, doc := range []string{
		`{"id":"job-1","kind":"plan","state":"pending","key":"k"}` + "\n",
		`{"id":"job-1","kind":"plan","state":"failed","error":{"code":"oom","message":"stage 2"}}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done"}` + "\n",
		`{"id":"job-\u003c1","kind":"plan","state":"done","result":{}}` + "\n",
		`{"kind":"plan","id":"job-1","state":"done","result":{}}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","cacheHit":false,"result":{}}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","shared":true,"cacheHit":true,"result":{}}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","result":[1,2]}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","result":{"a":1} }` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","result":{"a":1}}` + "\n\n",
		`{ "id":"job-1","kind":"plan","state":"done","result":{"a":1}}`,
		`{"id":"job-1","kind":"plan","state":"done","result":{"a":1},"key":"k"}`,
		`{"id":"job-1","kind":"plan","state":"done","result":{"a":}}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","result":{"a":1}}}` + "\n",
		`{"id":"job-1","kind":"plan","state":"done","result":{"a":1}` + "\n",
	} {
		var j Job
		if parseDone([]byte(doc), &j) {
			t.Errorf("parseDone accepted %q", doc)
		}
		if !reflect.DeepEqual(j, Job{}) {
			t.Errorf("parseDone wrote %+v for rejected %q", j, doc)
		}

		c, _, _ := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte(doc))
		}))
		got, err := c.Job(context.Background(), "job-1")
		var want Job
		if uerr := json.Unmarshal([]byte(doc), &want); uerr != nil {
			if !errors.Is(err, autopipe.ErrInternal) || !strings.Contains(err.Error(), "undecodable response") {
				t.Errorf("%q: err = %v, want an ErrInternal undecodable response", doc, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", doc, err)
			continue
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%q:\ngot  %+v\nwant %+v", doc, *got, want)
		}
	}
}

// FuzzParseDone requires every document parseDone accepts to be valid JSON
// that json.Unmarshal decodes to the same Job.
func FuzzParseDone(f *testing.F) {
	for _, j := range doneJobs() {
		f.Add(doneDoc(&j))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Job
		if !parseDone(data, &got) {
			return
		}
		var want Job
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parseDone accepted %q, which json.Unmarshal rejects: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parseDone %q:\ngot  %+v\nwant %+v", data, got, want)
		}
	})
}
