//go:build !race

package client

import (
	"encoding/json"
	"testing"
)

// doneDecodeAllocs is the allocation count of decoding one done document the
// way the daemon writes it, measured with go1.24 on linux/amd64: the Job,
// and the one string its id, kind and key are cut from.
const doneDecodeAllocs = 2

// TestDoneDecodeAllocsPinned pins the client's decode of a cache hit's done
// document. A reflective decode back on the path (json.Unmarshal of the
// same document makes several times as many allocations) fails it. (The
// race detector's instrumentation changes allocation counts, so -race skips
// this file.)
func TestDoneDecodeAllocsPinned(t *testing.T) {
	j := Job{ID: "job-00000042", Kind: KindPlan, State: StateDone, Key: "sha256:0123abcd", CacheHit: true, Result: planResult}
	doc := doneDoc(&j)
	n := testing.AllocsPerRun(1000, func() {
		var got Job
		if err := decode(doc, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
	})
	reflective := testing.AllocsPerRun(100, func() {
		var got Job
		if err := json.Unmarshal(doc, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
	})
	t.Logf("done decode: %v allocs/op (json.Unmarshal: %v)", n, reflective)
	if n > doneDecodeAllocs {
		t.Errorf("done decode: %v allocs/op, pinned at %d", n, doneDecodeAllocs)
	}
}
