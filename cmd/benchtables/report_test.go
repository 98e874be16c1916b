package main

import (
	"errors"
	"testing"
)

// TestMeasure pins the shared measure helper: a clean body yields a named
// record with its iteration count, and the first error a body returns comes
// back instead of the zero result testing.Benchmark reports for a failed
// run.
func TestMeasure(t *testing.T) {
	calls := 0
	rec, err := measure("ok", func(i int) error {
		calls++
		return nil
	})
	if err != nil || rec.Name != "ok" || rec.Iterations < 1 || calls < rec.Iterations {
		t.Fatalf("clean body: %+v, %v after %d calls", rec, err, calls)
	}
	boom := errors.New("boom")
	calls = 0
	if _, err := measure("fails", func(i int) error {
		calls++
		if i == 0 {
			return boom
		}
		return errors.New("a later error")
	}); err != boom || calls != 1 {
		t.Fatalf("failing body: error %v after %d calls, want the first error after 1", err, calls)
	}
}
