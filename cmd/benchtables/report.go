package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// benchResult is one machine-readable benchmark record.
type benchResult struct {
	Name        string `json:"name"`
	Machines    int    `json:"machines,omitempty"`
	Edges       int    `json:"edges,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	// EffectiveParallelism is min(Parallelism, GOMAXPROCS) at emission time
	// — the worker count the row actually ran with. Emitters skip grid cells
	// where the two would differ, so on any honest report this equals
	// Parallelism; it is recorded anyway so the artifact states the
	// conditions instead of asking the reader to trust them.
	EffectiveParallelism int     `json:"effective_parallelism,omitempty"`
	Iterations           int     `json:"iterations"`
	NsPerOp              float64 `json:"ns_per_op"`
	AllocsPerOp          int64   `json:"allocs_per_op"`
	BytesPerOp           int64   `json:"bytes_per_op"`
}

// measure times body under testing.Benchmark with allocation reporting and
// returns the record named name. body receives the iteration index. The
// first error body returns stops the run and is returned, and so is a run
// that completed no iteration: testing.Benchmark reports a failed run as a
// zero result, which would otherwise land in the artifact as ns_per_op 0.
func measure(name string, body func(i int) error) (benchResult, error) {
	var loopErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := body(i); err != nil {
				loopErr = err
				b.Fatal(err)
			}
		}
	})
	if loopErr != nil {
		return benchResult{}, loopErr
	}
	if r.N == 0 {
		return benchResult{}, errors.New("benchmark ran zero iterations")
	}
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

// writeReport writes v as indented JSON to path ("-" for stdout).
func writeReport(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
