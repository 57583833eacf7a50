package bench

import (
	"bytes"
	"errors"
	"testing"

	"autopipe/internal/errdefs"
)

// FuzzParseBaseline feeds arbitrary bytes to the BENCH_*.json codec. The
// contract: no panic; an accepted document passes Validate and its canonical
// encoding parses back to the same encoding; a rejection wraps ErrBadConfig.
// The checked-in corpus seeds BENCH_baseline.json and the unknown-field
// reject fixture. Run with
// `go test -run='^$' -fuzz=FuzzParseBaseline ./internal/bench`.
func FuzzParseBaseline(f *testing.F) {
	f.Add([]byte(`{"label":"x","suite":"autopipebench/1","nproc":2,"gomaxprocs":2,"parallelism":1,"benchmarks":[{"name":"a","iters":1,"custom":{"r":-1}}]}`))
	f.Add([]byte(`{"label":"x","suite":"autopipebench/1","nproc":2,"gomaxprocs":2,"parallelism":1,"benchmarks":[{"name":"a","iters":1},{"name":"a","iters":1}]}`))
	f.Add([]byte(`{"label":"x","suite":"autopipebench/1","nproc":2,"gomaxprocs":2,"parallelism":1,"benchmarks":[{"name":"a","iters":1,"nsPerOp":-1}]}`))
	f.Add([]byte(`{"label":"x","suite":"other/1","nproc":2,"gomaxprocs":2,"parallelism":1,"benchmarks":[{"name":"a","iters":1}]}`))
	f.Add([]byte(`{"label":"x","suite":"autopipebench/1","nproc":2,"gomaxprocs":2,"parallelism":1,"benchmarks":[]} {}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBaseline(data)
		if err != nil {
			if b != nil {
				t.Fatal("non-nil baseline returned with an error")
			}
			if !errors.Is(err, errdefs.ErrBadConfig) {
				t.Fatalf("parse error does not wrap ErrBadConfig: %v", err)
			}
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("accepted baseline fails Validate: %v", err)
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted baseline does not encode: %v", err)
		}
		again, err := ParseBaseline(enc)
		if err != nil {
			t.Fatalf("encoded baseline %s rejected: %v", enc, err)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("re-parsed baseline does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the encoding:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
