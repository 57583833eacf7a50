package schedule

import (
	"errors"
	"testing"

	"autopipe/internal/errdefs"
)

// FuzzParseSchedule drives the schedule-JSON parser (the document format of
// the checked-in schedule goldens) with arbitrary bytes: it must never
// panic, every rejection must wrap errdefs.ErrBadConfig, and every accepted schedule must re-validate,
// survive a static deadlock check without panicking, and round-trip through
// the encoder to an equally-accepted document. A checked-in seed corpus
// lives under testdata/fuzz/FuzzParseSchedule. Run with
// `go test -fuzz=FuzzParseSchedule ./internal/schedule`.
func FuzzParseSchedule(f *testing.F) {
	for _, build := range []func() (*Schedule, error){
		func() (*Schedule, error) { return OneFOneB(2, 2) },
		func() (*Schedule, error) { return Sliced(2, 3, 1) },
		func() (*Schedule, error) { return Interleaved(2, 2, 2) },
	} {
		s, err := build()
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeJSON(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[{"kind":"F","virt":0,"micro":0},{"kind":"B","virt":0,"micro":0}]]}`))
	f.Add([]byte(`not a schedule`))
	f.Add([]byte(`{"ops":[[]]}{"ops":[[]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseJSON(data)
		if err != nil {
			if s != nil {
				t.Fatal("non-nil schedule returned with an error")
			}
			if !errors.Is(err, errdefs.ErrBadConfig) {
				t.Fatalf("parse error does not wrap ErrBadConfig: %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted schedule fails Validate: %v", err)
		}
		// Deadlock analysis must terminate and classify, never panic.
		if err := s.CheckDeadlock(); err != nil &&
			!errors.Is(err, errdefs.ErrDeadlock) && !errors.Is(err, errdefs.ErrBadConfig) {
			t.Fatalf("CheckDeadlock returned an untyped error: %v", err)
		}
		out, err := EncodeJSON(s)
		if err != nil {
			t.Fatalf("accepted schedule fails to encode: %v", err)
		}
		if _, err := ParseJSON(out); err != nil {
			t.Fatalf("re-encoded schedule rejected: %v", err)
		}
	})
}
