// Benchmarks regenerating the experiment tables of the evaluation (the
// E1–E18 and A1–A5 index is in the internal/experiments package doc). Each
// BenchmarkE* runs the corresponding experiment; the tables themselves are
// printed by cmd/benchtables. Micro-benchmarks for the hot primitives
// (fingerprint estimation/encoding, color trials, matching) follow.
package clustercolor

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"clustercolor/internal/acd"
	"clustercolor/internal/benchwork"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/experiments"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/graph"
	"clustercolor/internal/matching"
	"clustercolor/internal/network"
	"clustercolor/internal/sketch"
	"clustercolor/internal/trials"
)

func benchTable(b *testing.B, run func(seed uint64) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := run(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1HighDegreeRounds(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E1HighDegreeRounds([]int{30, 60, 120}, seed)
	})
}

func BenchmarkE2LowDegreeRounds(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E2LowDegreeRounds([]int{200, 400, 800}, seed)
	})
}

func BenchmarkE3FingerprintAccuracy(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E3FingerprintAccuracy([]int{64, 256, 1024}, 500, 20, seed)
	})
}

func BenchmarkE4FingerprintEncoding(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E4FingerprintEncoding([]int{64, 256}, []int{16, 1024, 65536}, seed)
	})
}

func BenchmarkE5ACDQuality(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E5ACDQuality([]int{30, 60}, seed)
	})
}

func BenchmarkE6SlackGeneration(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E6SlackGeneration([]int{50, 100, 200, 400}, seed)
	})
}

func BenchmarkE7CabalMatching(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E7CabalMatching(80, []int{0, 2, 6, 12}, seed)
	})
}

func BenchmarkE8PutAside(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E8PutAside([]int{40, 80, 160}, 4, seed)
	})
}

func BenchmarkE9SCT(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E9SCT(60, []int{1, 3, 6, 10}, seed)
	})
}

func BenchmarkE10Bandwidth(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E10Bandwidth([]int{200, 400}, seed)
	})
}

func BenchmarkE11Dilation(b *testing.B) {
	h := graph.MustGNP(100, 0.1, graph.NewRand(1))
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E11Dilation(h, []int{1, 4, 8, 16}, seed)
	})
}

func BenchmarkE12Baselines(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E12Baselines([]int{200, 400}, seed)
	})
}

func BenchmarkE13TryColor(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E13TryColor(400, 8, seed)
	})
}

func BenchmarkE14PaletteQuery(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E14PaletteQuery(40, 25, seed)
	})
}

func BenchmarkE15Distance2(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E15Distance2([]int{100, 200}, seed)
	})
}

// --- ablation benches (A1–A5, indexed in the internal/experiments doc) ------

func BenchmarkA1EncodingAblation(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.A1Encoding([]int{64, 256, 1024}, 5000, 48, seed)
	})
}

func BenchmarkA2MatchingAblation(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.A2CabalMatching(70, 8, 3, seed)
	})
}

func BenchmarkA3PutAsideAblation(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.A3PutAside(300, 4, 14, seed)
	})
}

func BenchmarkA4MCTAblation(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.A4MCTGrowth(40, seed)
	})
}

func BenchmarkA5ReservedAblation(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.A5ReservedFraction([]float64{0.05, 0.2, 0.5}, seed)
	})
}

// --- runner benchmark ----------------------------------------------------
// The workload lives in internal/benchwork. The round engine's own benchmark
// (BenchmarkEngineStep) is in internal/network.

// BenchmarkExperimentRunner measures a cross-section of the experiment
// battery at sequential and full parallelism; the emitted tables are
// identical, only the wall clock changes.
func BenchmarkExperimentRunner(b *testing.B) {
	pars := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		pars = append(pars, p)
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			prev := experiments.SetParallelism(par)
			defer experiments.SetParallelism(prev)
			for i := 0; i < b.N; i++ {
				for _, run := range benchwork.BatteryCrossSection(uint64(i) + 1) {
					tbl, err := run()
					if err != nil {
						b.Fatal(err)
					}
					if len(tbl.Rows) == 0 {
						b.Fatal("empty table")
					}
				}
			}
		})
	}
}

// BenchmarkGraphGen measures the O(n+m) instance generators at the scales
// the ROADMAP's scenarios need, up to a million vertices (the workloads live
// in internal/benchwork). GNP and geometric run at two sizes a decade apart:
// linear scaling shows as ≈10× ns/op between them.
func BenchmarkGraphGen(b *testing.B) {
	for _, w := range benchwork.GraphGenWorkloads() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := w.Gen(uint64(i) + 1)
				if err != nil {
					b.Fatal(err)
				}
				if g.N() != w.N {
					b.Fatalf("generated %d vertices, want %d", g.N(), w.N)
				}
			}
		})
	}
}

// BenchmarkColor measures the full coloring pipeline per stage-level
// workload (internal/benchwork.ColorWorkloads). allocs/op here is the
// headline number the bitset palette machinery is accountable for. The
// rounds and fallback_rounds metrics are the charged rounds of the seed-1
// run (iteration 0), so they are deterministic at any -benchtime.
func BenchmarkColor(b *testing.B) {
	for _, w := range benchwork.ColorWorkloads() {
		b.Run(w.Name, func(b *testing.B) {
			h, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			params := w.Params(h.N())
			b.ReportAllocs()
			b.ResetTimer()
			var first *core.Stats
			for i := 0; i < b.N; i++ {
				stats, err := benchwork.RunColor(h, params, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				if stats.Rounds <= 0 {
					b.Fatal("no rounds charged")
				}
				if i == 0 {
					first = stats
				}
			}
			b.ReportMetric(float64(first.Rounds), "rounds")
			b.ReportMetric(float64(first.FallbackRounds), "fallback_rounds")
		})
	}
}

// BenchmarkACD measures the arena-backed decomposition stack (ComputeWith +
// BuildProfileWith) on the shared workload matrix, reusing one workspace so
// the timings reflect the steady state. Workloads above 10⁵ vertices are
// left to the benchtables -acdbench emitter (BENCH_acd.json): the go-test
// benchmark also runs in the CI bench smoke, which cannot afford the
// million-vertex arenas.
func BenchmarkACD(b *testing.B) {
	for _, w := range benchwork.ACDWorkloads() {
		if w.N > 100_000 {
			continue
		}
		b.Run(w.Name, func(b *testing.B) {
			h, err := w.Build()
			if err != nil {
				b.Fatal(err)
			}
			cg, err := benchwork.NewACDInstance(h, 1)
			if err != nil {
				b.Fatal(err)
			}
			ws := acd.NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := benchwork.RunACDOnce(cg, w.Eps, uint64(i)+1, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaletteOps measures the palette primitives on the shared GNP
// deg≈64 fixture: the caller-owned PaletteScratch paths must report zero
// allocs/op, and the package-level wrappers at most one (Palette's result).
// The case table lives in internal/benchwork, whose
// TestPaletteOpCasesAllocs pins that contract.
func BenchmarkPaletteOps(b *testing.B) {
	g, col, err := benchwork.PaletteOpsFixture(100_000)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := benchwork.PaletteOpCases(g, col)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Op(i)
			}
		})
	}
}

// --- micro-benchmarks ---------------------------------------------------

func BenchmarkFullPipelineHighDegree(b *testing.B) {
	h, _, err := graph.PlantedACD(graph.PlantedACDSpec{
		NumCliques:     3,
		CliqueSize:     60,
		DropFraction:   0.04,
		ExternalDegree: 3,
		SparseN:        60,
		SparseP:        0.1,
	}, graph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Color(h, Options{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Rounds()
	}
}

func BenchmarkFullPipelineLowDegree(b *testing.B) {
	h := graph.MustGNP(800, 6.0/800, graph.NewRand(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Color(h, Options{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFingerprint returns the 256-trial fingerprint of 1000 parties.
func benchFingerprint(rng *rand.Rand) []int8 {
	s := make([]int8, 256)
	for i := range s {
		s[i] = sketch.Empty
	}
	party := make([]int8, len(s))
	for j := 0; j < 1000; j++ {
		fingerprint.Draw(party, rng)
		sketch.MergeMax8(s, party)
	}
	return s
}

func BenchmarkFingerprintEstimate(b *testing.B) {
	s := benchFingerprint(graph.NewRand(3))
	var est sketch.MaxEstimator[int8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = est.Estimate(s)
	}
}

func BenchmarkFingerprintEncodeDecode(b *testing.B) {
	s := benchFingerprint(graph.NewRand(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := sketch.EncodeDeviation(s)
		if _, err := sketch.DecodeDeviation(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCG(b *testing.B, h *graph.Graph) *cluster.CG {
	b.Helper()
	exp, err := graph.Expand(h, graph.ExpandSpec{Topology: graph.TopologySingleton}, graph.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	cost, err := network.NewCostModel(48)
	if err != nil {
		b.Fatal(err)
	}
	cg, err := cluster.New(h, exp, cost)
	if err != nil {
		b.Fatal(err)
	}
	return cg
}

// BenchmarkTryColorRound measures TryColor rounds (Algorithm 17) on one
// session from an all-uncolored start, activation 0.5 over the full palette:
// the session's start, then per round the draw over the frontier, the
// conflict check over the vertices that tried, and the apply. The n=1e3 and
// n=1e5 rows run one round; GNP n=4·10⁵ deg≈64, the gnp-low benchmark's
// instance, runs the low-degree path's 14 degree-reduction rounds. Each
// graph is built outside the timer.
func BenchmarkTryColorRound(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n      int
		deg    float64
		rounds int
	}{
		{"GNP/n=1e3/deg=20", 1000, 20, 1},
		{"GNP/n=1e5/deg=64", 100_000, 64, 1},
		{"GNP/n=4e5/deg=64", 400_000, 64, 14},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := graph.MustGNP(bc.n, bc.deg/float64(bc.n), graph.NewRand(6))
			cg := benchCG(b, h)
			space := trials.RangeSpace(1, int32(h.MaxDegree()+1))
			opts := trials.TryColorOptions{
				Phase:      "bench",
				Activation: 0.5,
				Space:      func(v int) []int32 { return space },
			}
			rng := graph.NewRand(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := trials.NewTryColorSession(cg, coloring.New(h.N(), h.MaxDegree()), nil)
				for r := 0; r < bc.rounds; r++ {
					if _, err := s.Round(opts, rng); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkFingerprintMatching(b *testing.B) {
	n := 100
	bd := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			anti := v == u+1 && u%2 == 0 && u/2 < 8
			if !anti {
				if err := bd.AddEdge(u, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	h := bd.Build()
	cg := benchCG(b, h)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	view, err := coloring.NewCliqueView(cg, coloring.New(n, h.MaxDegree()), members)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.FingerprintMatching(view, matching.FingerprintOptions{
			Phase:   "bench",
			Members: members,
			Trials:  80,
		}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCliquePaletteBuild(b *testing.B) {
	h := graph.Clique(200)
	cg := benchCG(b, h)
	col := coloring.New(200, 199)
	for v := 0; v < 150; v++ {
		_ = col.Set(v, int32(v+1))
	}
	members := make([]int, 200)
	for i := range members {
		members[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := coloring.BuildCliquePalette(cg, col, members)
		if cp.FreeCount() == 0 {
			b.Fatal("no free colors")
		}
	}
}

func BenchmarkE16VirtualDistance2(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E16VirtualDistance2([]int{100}, seed)
	})
}

func BenchmarkE17Linial(b *testing.B) {
	benchTable(b, func(seed uint64) (*experiments.Table, error) {
		return experiments.E17Linial(1500, 2.0, seed)
	})
}
