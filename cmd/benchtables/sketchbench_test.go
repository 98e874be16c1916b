package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clustercolor/internal/benchwork"
	"clustercolor/internal/graph"
)

// TestEmitSketchBench exercises the BENCH_sketch.json emitter end-to-end on
// a small workload and validates the report schema: one wave record per
// parallelism level, one estimator record per variant with sane wire sizes
// and errors, and the -sketchn cap honored.
func TestEmitSketchBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark emitter in short mode")
	}
	small := []benchwork.SketchWorkload{
		{
			Name: "Sketch/GNP/test",
			N:    400,
			Xi:   0.25,
			Build: func() (*graph.Graph, error) {
				return graph.GNP(400, 24.0/400, graph.NewRand(5))
			},
		},
		{
			Name: "Sketch/GNP/capped-out",
			N:    5000,
			Xi:   0.25,
			Build: func() (*graph.Graph, error) {
				t.Fatal("workload above the -sketchn cap must not be built")
				return nil, nil
			},
		},
	}
	path := filepath.Join(t.TempDir(), "BENCH_sketch.json")
	if err := emitSketchBenchWorkloads(path, 7, 1000, small); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report sketchBenchReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Schema != "clustercolor/bench-sketch/v1" {
		t.Fatalf("schema = %q", report.Schema)
	}
	if report.MaxN != 1000 {
		t.Fatalf("max_n = %d, want 1000", report.MaxN)
	}
	// The sweep is the honest grid: every deliverable level of {1,2,4,NumCPU}
	// gets a row, oversubscribed levels are skipped, and each row records an
	// effective parallelism equal to its requested one.
	levels := honestParGrid("test", 1, 2, 4, runtime.NumCPU())
	if len(report.Waves) != len(levels) {
		t.Fatalf("got %d wave records, want %d honest parallelism levels", len(report.Waves), len(levels))
	}
	seenPar := map[int]bool{}
	for _, w := range report.Waves {
		if w.Vertices != 400 || w.Trials <= 0 || w.SketchBits <= 0 {
			t.Fatalf("wave record missing instance shape or payload: %+v", w)
		}
		if w.Iterations <= 0 || w.NsPerOp <= 0 {
			t.Fatalf("wave record has empty measurements: %+v", w)
		}
		if w.EffectiveParallelism != w.Parallelism {
			t.Fatalf("wave record at par %d reports effective %d — oversubscribed cells must be skipped, not emitted",
				w.Parallelism, w.EffectiveParallelism)
		}
		seenPar[w.Parallelism] = true
	}
	for _, par := range levels {
		if !seenPar[par] {
			t.Fatalf("no wave record at parallelism %d", par)
		}
	}
	if len(report.Estimators) != 1 {
		t.Fatalf("got %d estimator records, want 1 (harmonic)", len(report.Estimators))
	}
	wantEst := map[string]bool{"max/harmonic": false}
	for _, e := range report.Estimators {
		if _, ok := wantEst[e.Estimator]; !ok {
			t.Fatalf("unexpected estimator variant %q", e.Estimator)
		}
		wantEst[e.Estimator] = true
		if e.BitsPerVertex <= 0 || e.Width <= 0 {
			t.Fatalf("estimator record missing wire size: %+v", e)
		}
		// Degree ≈ 24 at this width: the estimate should land within 50%
		// mean relative error by a wide margin.
		if e.MeanRelErr <= 0 || e.MeanRelErr > 0.5 {
			t.Fatalf("estimator %s mean relative error %v out of range", e.Estimator, e.MeanRelErr)
		}
	}
	for name, seen := range wantEst {
		if !seen {
			t.Fatalf("estimator variant %s missing from report", name)
		}
	}
}
