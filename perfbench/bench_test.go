package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"clustercolor"
)

var workloadNames = []string{"planted-high", "gnp-low", "ring-sharded"}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadDeclared reads the metric and workload lists of BENCHMARK.json.
func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(t *testing.T, name string) config {
	t.Helper()
	w, err := lookupWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	return config{w: w, seed: 7, log: io.Discard}
}

// checkMetrics asserts res reports exactly the declared metrics, each with
// its declared unit and a finite value.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	got := make(map[string]string, len(res.Metrics))
	for name, m := range res.Metrics {
		got[name] = m.Unit
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
	}
}

func TestDeclaredWorkloadsExist(t *testing.T) {
	var names []string
	for _, w := range loadDeclared(t).Workloads {
		names = append(names, w.Name)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
}

func TestEndToEndMetrics(t *testing.T) {
	want := map[string]string{}
	for _, m := range loadDeclared(t).EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := measure(tinyConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minCalls {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, want)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedMetricsReconcile(t *testing.T) {
	want := map[string]string{}
	for _, m := range loadDeclared(t).PerLayer {
		want[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, spans, err := traceRun(tinyConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(spans) == 0 {
				t.Fatalf("correct=%v failed=%d spans=%d", res.Correct, res.Failed, len(spans))
			}
			checkMetrics(t, res, want)
			m := res.Metrics
			parts := m["graph.expand_s"].Value + m["cluster.build_s"].Value + m["core.unattributed_s"].Value
			for _, st := range coreStages {
				parts += m["core."+st+"_s"].Value
			}
			if wall := m["trace.wall_s"].Value; math.Abs(parts-wall) > 1e-9*max(1, wall) {
				t.Errorf("parts sum to %v, replay wall %v", parts, wall)
			}
			if u := m["core.unattributed_s"].Value; u < 0 {
				t.Errorf("core.unattributed_s = %v: stage parts overlap", u)
			}
			highDegree := m["core.decompose_s"].Value > 0
			if highDegree != (name != "gnp-low") {
				t.Errorf("high-degree path = %v", highDegree)
			}
			if got := m["sketch.row_cells"].Value > 0 && m["acd.compute_s"].Value > 0; got != highDegree {
				t.Errorf("probes ran = %v on a high-degree run = %v", got, highDegree)
			}
		})
	}
}

// TestCorruptedColoringFails corrupts one coloring per run: the call must be
// counted as failed against the attempted calls, not dropped.
func TestCorruptedColoringFails(t *testing.T) {
	tamper := func(call int, colors []int) {
		if call == 0 {
			colors[0] = 0
		}
	}
	cfg := tinyConfig(t, "planted-high")
	cfg.tamper = tamper
	res, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted < minCalls {
		t.Fatalf("measure: correct=%v attempted=%d failed=%d, want one failed call", res.Correct, res.Attempted, res.Failed)
	}
	res, _, err = traceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted < 2 {
		t.Fatalf("traceRun: correct=%v attempted=%d failed=%d, want one failed replay", res.Correct, res.Attempted, res.Failed)
	}
}

// TestReplayMatchesColor pins the traced run to the call it splits: the
// replay of Color's steps charges the same rounds and returns the same
// colors as clustercolor.Color.
func TestReplayMatchesColor(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			h, err := cfg.w.generate(cfg.seed)
			if err != nil {
				t.Fatal(err)
			}
			opts := cfg.w.options(cfg.seed)
			res, err := clustercolor.Color(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			r, err := replayOnce(h, opts, resolveParams(opts, h.N()), &tracer{}, -1)
			if err != nil {
				t.Fatal(err)
			}
			if r.stats.Rounds != res.Rounds() || !reflect.DeepEqual(r.colors, res.Colors()) {
				t.Fatalf("replay rounds %d, Color rounds %d (colors equal: %v)", r.stats.Rounds, res.Rounds(), reflect.DeepEqual(r.colors, res.Colors()))
			}
		})
	}
}

func TestRefusals(t *testing.T) {
	cases := map[string][]string{
		"unknown workload": {"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		"bad trace":        {"--workload", "gnp-low", "--seed", "1", "--seconds", "1", "--trace", "2"},
		"zero seconds":     {"--workload", "gnp-low", "--seed", "1", "--seconds", "0", "--trace", "0"},
	}
	for name, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q", name, code, out.String())
		}
	}
	old := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(old)
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "gnp-low", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut)
	if code == 0 || out.Len() != 0 || !strings.Contains(errOut.String(), "exceeds nproc") {
		t.Fatalf("oversubscribed run: exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}
