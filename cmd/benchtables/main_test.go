package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustercolor/internal/distsim"
	"clustercolor/internal/experiments"
)

// TestMain runs each emitter benchmark body once (-test.benchtime=1x)
// unless the caller passed -benchtime: the emitter tests check schemas and
// invariants, not timings, and testing.Benchmark's default 1 s per row is
// most of their cost.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.benchtime" })
	if !set {
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.Exit(m.Run())
}

// TestTablesRenderAndCSVRoundTrip smoke-tests the full battery the command
// prints: every table renders with its id banner, and its CSV form parses
// back through encoding/csv into exactly the header plus rows.
func TestTablesRenderAndCSVRoundTrip(t *testing.T) {
	tables, err := experiments.All(41)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := experiments.Ablations(41)
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, abl...)
	if len(tables) < 17 {
		t.Fatalf("battery produced only %d tables", len(tables))
	}
	for _, tbl := range tables {
		rendered := tbl.Render()
		if !strings.HasPrefix(rendered, fmt.Sprintf("== %s: ", tbl.ID)) {
			t.Errorf("table %s render missing banner:\n%s", tbl.ID, rendered)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("table %s has no rows", tbl.ID)
			continue
		}
		r := csv.NewReader(strings.NewReader(tbl.CSV()))
		r.Comment = '#'
		records, err := r.ReadAll()
		if err != nil {
			t.Errorf("table %s CSV does not parse: %v", tbl.ID, err)
			continue
		}
		want := append([][]string{tbl.Header}, tbl.Rows...)
		if len(records) != len(want) {
			t.Errorf("table %s CSV has %d records, want %d", tbl.ID, len(records), len(want))
			continue
		}
		for i, rec := range records {
			if len(rec) != len(want[i]) {
				t.Errorf("table %s CSV record %d has %d fields, want %d", tbl.ID, i, len(rec), len(want[i]))
				continue
			}
			for j := range rec {
				if rec[j] != want[i][j] {
					t.Errorf("table %s CSV cell (%d,%d) = %q, want %q", tbl.ID, i, j, rec[j], want[i][j])
				}
			}
		}
	}
}

// TestEmitDistsimBench pins the -distsimbench emitter: a small scenario
// subset produces a schema-tagged report whose primitives all passed the
// conformance assertions (the emitter fails otherwise by construction).
func TestEmitDistsimBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_distsim.json")
	if err := emitDistsimBenchScenarios(path, 3, distsim.Matrix()[:1]); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep distsimBenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "clustercolor/bench-distsim/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("scenarios = %d, want 1", len(rep.Scenarios))
	}
	sc := rep.Scenarios[0]
	if sc.Vertices == 0 || len(sc.Primitives) < 2 || sc.NsPerOp <= 0 {
		t.Fatalf("degenerate record: %+v", sc)
	}
	for _, p := range sc.Primitives {
		if !p.Skipped && int64(p.CommRounds) > p.ChargedRounds {
			t.Fatalf("%s: comm %d > charged %d escaped the harness", p.Primitive, p.CommRounds, p.ChargedRounds)
		}
	}
}
