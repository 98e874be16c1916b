package clustercolor

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"clustercolor/internal/acd"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
	"clustercolor/internal/shard"
	"clustercolor/internal/sketch"
)

// colorFingerprint is a stable FNV-64a hash of a run's full color vector
// (little-endian int32 per vertex). It pins the exact coloring, not just
// its properness: a refactor that changes any vertex's color changes the
// fingerprint.
func colorFingerprint(colors []int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range colors {
		buf[0] = byte(c)
		buf[1] = byte(c >> 8)
		buf[2] = byte(c >> 16)
		buf[3] = byte(c >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenCase is one pinned scenario × seed cell.
type goldenCase struct {
	name  string
	build func(seed uint64) (*Graph, error)
	opts  Options
	seed  uint64
	want  uint64 // pinned fingerprint (a mismatch failure prints the repin value)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:  "gnp/n300/low",
			build: func(seed uint64) (*Graph, error) { return GNP(300, 0.08, seed) },
			opts:  Options{},
			seed:  3,
			want:  0x603aa863bb1eb991,
		},
		{
			name:  "gnp/n300/low/seed9",
			build: func(seed uint64) (*Graph, error) { return GNP(300, 0.08, seed) },
			opts:  Options{},
			seed:  9,
			want:  0x652984d40b004c6b,
		},
		{
			name:  "ringcliques/high",
			build: func(seed uint64) (*Graph, error) { return RingOfCliques(10, 40) },
			opts:  Options{Topology: StarCluster, MachinesPerCluster: 3},
			seed:  5,
			want:  0x3be2ffefb100de67,
		},
		{
			name:  "ba/tree-clusters",
			build: func(seed uint64) (*Graph, error) { return BarabasiAlbert(260, 6, seed) },
			opts:  Options{Topology: TreeCluster, MachinesPerCluster: 4},
			seed:  7,
			want:  0x0a350649a27f8530,
		},
		{
			name: "geometric/redundant",
			build: func(seed uint64) (*Graph, error) {
				return RandomGeometric(220, 0.16, seed)
			},
			opts: Options{Topology: StarCluster, MachinesPerCluster: 3, RedundantLinks: 2},
			seed: 11,
			want: 0x5559977f8ae710ac,
		},
	}
}

// TestGoldenColorFingerprints pins a stable hash of Color's full output per
// scenario kind × seed × parallelism level: a refactor that changes any
// coloring fails loudly here instead of silently shifting results, and the
// parallel stage loops must reproduce the sequential fingerprint exactly.
func TestGoldenColorFingerprints(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			h, err := gc.build(gc.seed)
			if err != nil {
				t.Fatal(err)
			}
			var ref uint64
			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				prev := parwork.SetParallelism(par)
				res, err := Color(h, Options{
					Topology:           gc.opts.Topology,
					MachinesPerCluster: gc.opts.MachinesPerCluster,
					RedundantLinks:     gc.opts.RedundantLinks,
					Seed:               gc.seed,
				})
				parwork.SetParallelism(prev)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				got := colorFingerprint(res.Colors())
				if par == 1 {
					ref = got
					if got != gc.want {
						t.Errorf("fingerprint = %#016x, pinned %#016x\n"+
							"(if this change to the coloring is intended, repin: %s)",
							got, gc.want, repinLine(gc.name, got))
					}
				} else if got != ref {
					t.Errorf("parallelism %d fingerprint %#016x != sequential %#016x", par, got, ref)
				}
			}
		})
	}
}

func repinLine(name string, got uint64) string {
	return fmt.Sprintf("update goldenCases entry %q to want: %#016x", name, got)
}

// TestGoldenColorFingerprintsSharded pins the partitioned substrate to the
// same fingerprints: routing the decomposition through shard slices with
// boundary exchanges must not move a single color, at any shard count or
// parallelism. The pinned values are shared with TestGoldenColorFingerprints
// — there is one truth, not a sharded variant of it.
func TestGoldenColorFingerprintsSharded(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			h, err := gc.build(gc.seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4} {
				for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
					prev := parwork.SetParallelism(par)
					res, err := Color(h, Options{
						Topology:           gc.opts.Topology,
						MachinesPerCluster: gc.opts.MachinesPerCluster,
						RedundantLinks:     gc.opts.RedundantLinks,
						Shards:             shards,
						Seed:               gc.seed,
					})
					parwork.SetParallelism(prev)
					if err != nil {
						t.Fatalf("shards=%d parallelism=%d: %v", shards, par, err)
					}
					if got := colorFingerprint(res.Colors()); got != gc.want {
						t.Errorf("shards=%d parallelism=%d: fingerprint %#016x, pinned %#016x",
							shards, par, got, gc.want)
					}
				}
			}
		})
	}
}

// decompFingerprint is a stable FNV-64a hash of a decomposition + profile:
// CliqueOf as little-endian int32 per vertex followed by one cabal-flag byte
// per clique. It pins the exact clique structure and classification, not
// just its validity.
func decompFingerprint(d *acd.Decomposition, prof *acd.Profile) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, k := range d.CliqueOf {
		buf[0] = byte(k)
		buf[1] = byte(k >> 8)
		buf[2] = byte(k >> 16)
		buf[3] = byte(k >> 24)
		h.Write(buf[:])
	}
	for _, cab := range prof.IsCabal {
		if cab {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// goldenDecompCase pins one decomposition scenario × seed cell.
type goldenDecompCase struct {
	name  string
	build func(seed uint64) (*Graph, error)
	opts  Options
	seed  uint64
	want  uint64
}

func goldenDecompCases() []goldenDecompCase {
	return []goldenDecompCase{
		{
			name:  "acd/gnp/n300",
			build: func(seed uint64) (*Graph, error) { return GNP(300, 0.08, seed) },
			opts:  Options{},
			seed:  3,
			want:  0xd339907f3b080c35,
		},
		{
			name:  "acd/ringcliques",
			build: func(seed uint64) (*Graph, error) { return RingOfCliques(10, 40) },
			opts:  Options{Topology: StarCluster, MachinesPerCluster: 3},
			seed:  5,
			want:  0xcb309dece80e959f,
		},
		{
			name:  "acd/planted",
			build: func(seed uint64) (*Graph, error) { return plantedGolden(seed) },
			opts:  Options{Topology: TreeCluster, MachinesPerCluster: 4},
			seed:  7,
			want:  0x1204cf504d5262d8,
		},
		{
			name: "acd/geometric/redundant",
			build: func(seed uint64) (*Graph, error) {
				return RandomGeometric(220, 0.16, seed)
			},
			opts: Options{Topology: StarCluster, MachinesPerCluster: 3, RedundantLinks: 2},
			seed: 11,
			want: 0x0b2675dc07c0d875,
		},
	}
}

func plantedGolden(seed uint64) (*Graph, error) {
	h, _, err := PlantedACD(PlantedACDSpec{
		NumCliques:     4,
		CliqueSize:     40,
		DropFraction:   0.04,
		ExternalDegree: 3,
		SparseN:        80,
		SparseP:        0.06,
	}, seed)
	return h, err
}

// TestGoldenDecompositionFingerprints pins a stable hash of the
// decomposition stage's full output (CliqueOf per vertex + cabal flag per
// clique) per scenario × seed × parallelism level: the arena-backed waves
// must reproduce the sequential decomposition bit for bit, and any intended
// change to the decomposition fails loudly here with a repin line.
func TestGoldenDecompositionFingerprints(t *testing.T) {
	for _, gc := range goldenDecompCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			h, err := gc.build(gc.seed)
			if err != nil {
				t.Fatal(err)
			}
			cg, _, err := buildClusterGraph(h, Options{
				Topology:           gc.opts.Topology,
				MachinesPerCluster: gc.opts.MachinesPerCluster,
				RedundantLinks:     gc.opts.RedundantLinks,
				Seed:               gc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			params := core.DefaultParams(h.N())
			var ref uint64
			for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				prev := parwork.SetParallelism(par)
				rng := parwork.StreamRNG(gc.seed)
				ws := acd.NewWorkspace()
				d, err := acd.ComputeWith(cg, params.Eps, rng, ws)
				if err == nil {
					var prof *acd.Profile
					prof, err = acd.BuildProfileWith(cg, d, float64(h.MaxDegree()), params.Ell(h.N()), rng, ws)
					if err == nil {
						got := decompFingerprint(d, prof)
						if par == 1 {
							ref = got
							if got != gc.want {
								t.Errorf("fingerprint = %#016x, pinned %#016x\n"+
									"(if this change to the decomposition is intended, repin: update goldenDecompCases entry %q to want: %#016x)",
									got, gc.want, gc.name, got)
							}
						} else if got != ref {
							t.Errorf("parallelism %d fingerprint %#016x != sequential %#016x", par, got, ref)
						}
					}
				}
				parwork.SetParallelism(prev)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
			}
		})
	}
}

// TestGoldenDecompositionFingerprintsSharded runs the decomposition stage on
// the shard engine at shard counts 2 and 4 and checks it against the same
// pinned fingerprints as the unsharded stage.
func TestGoldenDecompositionFingerprintsSharded(t *testing.T) {
	for _, gc := range goldenDecompCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			h, err := gc.build(gc.seed)
			if err != nil {
				t.Fatal(err)
			}
			cg, _, err := buildClusterGraph(h, Options{
				Topology:           gc.opts.Topology,
				MachinesPerCluster: gc.opts.MachinesPerCluster,
				RedundantLinks:     gc.opts.RedundantLinks,
				Seed:               gc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			params := core.DefaultParams(h.N())
			for _, shards := range []int{2, 4} {
				for _, par := range []int{1, 4} {
					prev := parwork.SetParallelism(par)
					rng := parwork.StreamRNG(gc.seed)
					ws := acd.NewWorkspace()
					sg, err := graph.NewShardedGraph(cg.H, shards)
					if err == nil {
						se := shard.NewEngine(sg, sketch.MaxKernel{})
						var d *acd.Decomposition
						d, err = acd.ComputeShardedWith(cg, se, params.Eps, rng, ws)
						if err == nil {
							var prof *acd.Profile
							prof, err = acd.BuildProfileShardedWith(cg, se, d, float64(h.MaxDegree()), params.Ell(h.N()), rng, ws)
							if err == nil {
								if got := decompFingerprint(d, prof); got != gc.want {
									t.Errorf("shards=%d parallelism=%d: fingerprint %#016x, pinned %#016x",
										shards, par, got, gc.want)
								}
							}
						}
					}
					parwork.SetParallelism(prev)
					if err != nil {
						t.Fatalf("shards=%d parallelism=%d: %v", shards, par, err)
					}
				}
			}
		})
	}
}

// TestGoldenGNPLowDegreeAtScale pins Color on the low-degree path at 10⁵
// vertices: GNP with average degree 64 and DeltaLow 256, the gnp-low
// benchmark's shape at a quarter of its size. Every other Color golden runs
// at n ≤ 400, where a TryColor round touches a few hundred vertices; here the
// color trials, the shattering rounds and the output check run at the scale
// the benchmark measures, and the coloring, the charged rounds and the
// largest payload must not move.
func TestGoldenGNPLowDegreeAtScale(t *testing.T) {
	const (
		n           = 100_000
		seed        = 3
		wantColors  = 0xf2db9f5894d54a93
		wantRounds  = 42
		wantMaxBits = 99
	)
	h, err := GNP(n, 64.0/n, seed)
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams(n)
	params.DeltaLow = 256
	res, err := Color(h, Options{Seed: seed, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Path != "low-degree" {
		t.Fatalf("path %q, want low-degree", st.Path)
	}
	if got := colorFingerprint(res.Colors()); got != wantColors || st.Rounds != wantRounds || st.MaxPayloadBits != wantMaxBits {
		t.Errorf("fingerprint %#016x, rounds %d, max payload %d bits; pinned %#016x, %d, %d",
			got, st.Rounds, st.MaxPayloadBits, uint64(wantColors), wantRounds, wantMaxBits)
	}
}
