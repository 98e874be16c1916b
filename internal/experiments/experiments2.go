package experiments

import (
	"fmt"
	"math/bits"
	"slices"

	"clustercolor/internal/baseline"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/matching"
	"clustercolor/internal/putaside"
	"clustercolor/internal/sct"
	"clustercolor/internal/slackgen"
	"clustercolor/internal/trials"
)

// E6SlackGeneration measures Proposition 4.5: slack of sparse vertices and
// reuse slack of dense vertices after one slack-generation wave, vs Δ.
func E6SlackGeneration(deltas []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Proposition 4.5 — slack generated vs Δ (star centers)",
		Header: []string{"Delta", "reuseSlack", "reuse/Delta"},
		Notes:  "sparse vertices get Ω(Δ) slack: reuse/Delta should be a stable constant",
	}
	rows, err := forEach(len(deltas), func(i int) ([]string, error) {
		delta := deltas[i]
		h := graph.Star(delta + 1)
		cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return nil, err
		}
		col := coloring.New(h.N(), h.MaxDegree())
		if _, err := slackgen.Run(cg, col, slackgen.Options{Activation: 0.5}, graph.NewRand(seed+2)); err != nil {
			return nil, err
		}
		reuse := coloring.ReuseSlack(h, col, 0)
		return []string{
			d(delta), d(reuse), f3(float64(reuse) / float64(delta)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E7CabalMatching measures Lemma 6.2 / Proposition 4.15: fingerprint
// matching size vs planted anti-degree in near-cliques.
func E7CabalMatching(n int, plantedPairs []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("Lemma 6.2 — fingerprint matching in %d-vertex cabals", n),
		Header: []string{"plantedAntiPairs", "matchedPairs", "coveredFrac"},
		Notes:  "Lemma 6.2 guarantees τ·â_K/(4ε) pairs; coverage should grow with planted anti-degree",
	}
	k := 12 * bits.Len(uint(n))
	rows, err := forEach(len(plantedPairs), func(i int) ([]string, error) {
		planted := plantedPairs[i]
		b := graph.NewBuilder(n)
		isAnti := func(u, v int) bool {
			if u > v {
				u, v = v, u
			}
			return v == u+1 && u%2 == 0 && u/2 < planted
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !isAnti(u, v) {
					if err := b.AddEdge(u, v); err != nil {
						return nil, err
					}
				}
			}
		}
		h := b.Build()
		cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return nil, err
		}
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		view, err := coloring.NewCliqueView(cg, coloring.New(n, h.MaxDegree()), members)
		if err != nil {
			return nil, err
		}
		pairs, err := matching.FingerprintMatching(view, matching.FingerprintOptions{
			Phase:   "e7",
			Members: members,
			Trials:  k,
		}, graph.NewRand(seed+3))
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if planted > 0 {
			frac = float64(len(pairs)) / float64(planted)
		}
		return []string{d(planted), d(len(pairs)), f3(frac)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E8PutAside measures Proposition 4.19 in the Section 2.4 setting: put-aside
// coloring outcomes and round cost for growing clique sizes.
func E8PutAside(cliqueSizes []int, r int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Proposition 4.19 — put-aside coloring (Section 2.4 setting)",
		Header: []string{"cliqueSize", "r", "viaFree", "viaDonation", "viaFallback", "uncolored", "rounds"},
		Notes:  "O(1)-round claim: rounds should not grow with clique size; fallback should be rare",
	}
	rows, err := forEach(len(cliqueSizes), func(row int) ([]string, error) {
		s := cliqueSizes[row]
		h, blocks, err := graph.PlantedCabals(graph.CabalSpec{NumCliques: 3, CliqueSize: s, External: 3}, graph.NewRand(seed))
		if err != nil {
			return nil, err
		}
		cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return nil, err
		}
		cabals := make([][]int, 3)
		for v := 0; v < h.N(); v++ {
			cabals[blocks[v]] = append(cabals[blocks[v]], v)
		}
		col := coloring.New(h.N(), h.MaxDegree())
		rng := graph.NewRand(seed + 2)
		ps, err := putaside.ComputePutAside(cg, col, putaside.ComputeOptions{Phase: "e8", Cabals: cabals, R: r}, rng)
		if err != nil {
			return nil, err
		}
		skip := map[int]bool{}
		for _, p := range ps {
			for _, v := range p {
				skip[v] = true
			}
		}
		for v := 0; v < h.N(); v++ {
			if skip[v] {
				continue
			}
			pal := coloring.Palette(h, col, v)
			if len(pal) == 0 {
				return nil, fmt.Errorf("experiments: e8 preparation stuck at %d", v)
			}
			if err := col.Set(v, pal[0]); err != nil {
				return nil, err
			}
		}
		before := cg.Cost().Rounds()
		agg := putaside.DonateResult{}
		lg := bits.Len(uint(h.N()))
		for i, members := range cabals {
			view, putAside, err := cabalView(cg, col, members, ps[i])
			if err != nil {
				return nil, err
			}
			res, err := putaside.ColorPutAside(view, putaside.DonateOptions{
				Phase:              "e8/donate",
				PutAside:           putAside,
				FreeColorThreshold: 4 * r,
				BlockSize:          8,
				SampleTries:        4 * lg,
			}, rng)
			if err != nil {
				return nil, err
			}
			if err := view.Store(col); err != nil {
				return nil, err
			}
			agg.ViaFreeColors += res.ViaFreeColors
			agg.ViaDonation += res.ViaDonation
			agg.ViaFallback += res.ViaFallback
			agg.Uncolored += res.Uncolored
		}
		return []string{
			d(s), d(r), d(agg.ViaFreeColors), d(agg.ViaDonation), d(agg.ViaFallback),
			d(agg.Uncolored), d64(cg.Cost().Rounds() - before),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// cabalView fills the view of one cabal from col and translates its
// put-aside vertices into member indices.
func cabalView(cg *cluster.CG, col *coloring.Coloring, members, putAside []int) (*coloring.CliqueView, []int, error) {
	view, err := coloring.NewCliqueView(cg, col, members)
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, len(putAside))
	for j, v := range putAside {
		if idx[j] = slices.Index(members, v); idx[j] < 0 {
			return nil, nil, fmt.Errorf("experiments: put-aside vertex %d outside its cabal", v)
		}
	}
	return view, idx, nil
}

// E9SCT measures Lemma 4.13: leftovers after a synchronized color trial vs
// external degree.
func E9SCT(cliqueSize int, externals []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("Lemma 4.13 — SCT leftovers vs external degree (|K|=%d)", cliqueSize),
		Header: []string{"extDegree", "tried", "colored", "leftover", "leftover/e_K"},
		Notes:  "Lemma 4.13: leftovers ≤ (24/α)·max{e_K, ℓ}; the ratio should stay O(1)",
	}
	rows, err := forEach(len(externals), func(i int) ([]string, error) {
		ext := externals[i]
		h, blocks, err := graph.PlantedCabals(graph.CabalSpec{NumCliques: 2, CliqueSize: cliqueSize, External: ext}, graph.NewRand(seed))
		if err != nil {
			return nil, err
		}
		cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return nil, err
		}
		col := coloring.New(h.N(), h.MaxDegree())
		var members []int
		for v := 0; v < h.N(); v++ {
			if blocks[v] == 0 {
				members = append(members, v)
			}
		}
		view, err := coloring.NewCliqueView(cg, col, members)
		if err != nil {
			return nil, err
		}
		participants := make([]int, len(members))
		for i := range participants {
			participants[i] = i
		}
		res, err := sct.Run(view, sct.Options{Phase: "e9", Participants: participants}, graph.NewRand(seed+2))
		if err != nil {
			return nil, err
		}
		left := res.Tried - res.Colored
		eK := float64(2*ext) + 0.001 // sampled both ways
		return []string{
			d(ext), d(res.Tried), d(res.Colored), d(left), f3(float64(left) / eK),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E12Baselines compares the paper's algorithm against Johansson/Luby random
// trials and FGH+24-style palette sparsification on shared workloads.
func E12Baselines(sizes []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Baselines — rounds: this paper vs Luby vs palette sparsification",
		Header: []string{"n", "Delta", "oursRounds", "lubyRounds", "psRounds", "winner"},
		Notes:  "the paper's win grows with n: Luby pays Θ(log n) palette waves, PS pays Θ(log² n) list machinery",
	}
	rows, err := forEach(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		h, err := cachedGNP(n, 20.0/float64(n), seed)
		if err != nil {
			return nil, err
		}
		ours, err := runOurs(h, seed)
		if err != nil {
			return nil, err
		}
		luby, err := runBaseline(h, seed, func(cg clusterCG, col *coloring.Coloring) (int64, error) {
			res, err := baseline.RandomTrials(cg, col, 4*n+100, graph.NewRand(seed+5))
			if err != nil {
				return 0, err
			}
			return res.Rounds, nil
		})
		if err != nil {
			return nil, err
		}
		ps, err := runBaseline(h, seed, func(cg clusterCG, col *coloring.Coloring) (int64, error) {
			res, err := baseline.PaletteSparsification(cg, col, 2.0, 4*n+100, graph.NewRand(seed+6))
			if err != nil {
				return 0, err
			}
			return res.Rounds, nil
		})
		if err != nil {
			return nil, err
		}
		winner := "ours"
		if luby < ours && luby <= ps {
			winner = "luby"
		} else if ps < ours && ps < luby {
			winner = "ps"
		}
		return []string{
			d(n), d(h.MaxDegree()), d64(ours), d64(luby), d64(ps), winner,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// clusterCG aliases the cluster-graph handle used by baseline runners.
type clusterCG = *cluster.CG

// E13TryColor measures Lemma D.3: the uncolored-count reduction factor per
// TryColor round on slack-rich instances.
func E13TryColor(n int, rounds int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Lemma D.3 — TryColor per-round shrink factor",
		Header: []string{"round", "uncolored", "shrinkFactor"},
		Notes:  "with constant slack fraction each round removes a constant fraction (factor < 1)",
	}
	h, err := cachedGNP(n, 12.0/float64(n), seed)
	if err != nil {
		return nil, err
	}
	cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
	if err != nil {
		return nil, err
	}
	col := coloring.New(h.N(), h.MaxDegree())
	space := trials.RangeSpace(1, col.MaxColor())
	prev := h.N()
	rng := graph.NewRand(seed + 2)
	for r := 0; r < rounds && prev > 0; r++ {
		if _, err := trials.TryColorRound(cg, col, trials.TryColorOptions{
			Phase:      "e13",
			Activation: 0.5,
			Space:      func(v int) []int32 { return space },
		}, rng); err != nil {
			return nil, err
		}
		cur := h.N() - col.DomSize()
		factor := 0.0
		if prev > 0 {
			factor = float64(cur) / float64(prev)
		}
		t.Rows = append(t.Rows, []string{d(r + 1), d(cur), f3(factor)})
		prev = cur
	}
	return t, nil
}

// E14PaletteQuery checks Lemma 4.8: clique-palette queries agree with brute
// force and cost O(1) rounds per wave.
func E14PaletteQuery(cliqueSize int, colored int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  fmt.Sprintf("Lemma 4.8 — clique palette queries (|K|=%d, %d colored)", cliqueSize, colored),
		Header: []string{"query", "result", "bruteForce", "match"},
	}
	h := graph.Clique(cliqueSize)
	cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
	if err != nil {
		return nil, err
	}
	col := coloring.New(h.N(), h.MaxDegree())
	rng := graph.NewRand(seed + 2)
	members := make([]int, cliqueSize)
	for i := range members {
		members[i] = i
	}
	for i := 0; i < colored && i < cliqueSize; i++ {
		c := int32(rng.IntN(int(col.MaxColor()))) + 1
		if coloring.Available(h, col, i, c) {
			if err := col.Set(i, c); err != nil {
				return nil, err
			}
		}
	}
	cp := coloring.BuildCliquePalette(cg, col, members)
	// Brute force.
	used := map[int32]bool{}
	for _, v := range members {
		if c := col.Get(v); c != coloring.None {
			used[c] = true
		}
	}
	bfFree := 0
	for c := int32(1); c <= col.MaxColor(); c++ {
		if !used[c] {
			bfFree++
		}
	}
	addRow := func(q, res, bf string) {
		match := "yes"
		if res != bf {
			match = "NO"
		}
		t.Rows = append(t.Rows, []string{q, res, bf, match})
	}
	addRow("|L(K)|", d(cp.FreeCount()), d(bfFree))
	half := col.MaxColor() / 2
	bfHalf := 0
	for c := int32(1); c <= half; c++ {
		if !used[c] {
			bfHalf++
		}
	}
	addRow(fmt.Sprintf("|L(K)∩[1,%d]|", half), d(cp.CountFreeInRange(1, half)), d(bfHalf))
	if cp.FreeCount() > 0 {
		got, err := cp.NthFree(1)
		if err != nil {
			return nil, err
		}
		var want int32
		for c := int32(1); c <= col.MaxColor(); c++ {
			if !used[c] {
				want = c
				break
			}
		}
		addRow("1st free color", d(int(got)), d(int(want)))
	}
	return t, nil
}

// E15Distance2 runs Corollary 1.3: distance-2 coloring via the square graph.
func E15Distance2(sizes []int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "Corollary 1.3 — distance-2 coloring via cluster graphs",
		Header: []string{"n", "Delta2", "colorsUsed", "rounds", "proper2"},
		Notes:  "colors ≤ Δ²+1 where Δ² = max |N²(v)|",
	}
	rows, err := forEach(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		g, err := cachedGNP(n, 4.0/float64(n), seed)
		if err != nil {
			return nil, err
		}
		h2, err := g.Power(2)
		if err != nil {
			return nil, err
		}
		cg, err := buildCG(h2, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return nil, err
		}
		p := core.DefaultParams(h2.N())
		p.Seed = seed + 2
		col, stats, err := core.Color(cg, p)
		if err != nil {
			return nil, err
		}
		proper := "yes"
		if err := coloring.VerifyComplete(h2, col); err != nil {
			proper = "NO"
		}
		return []string{
			d(n), d(h2.MaxDegree()), d(col.CountColors()), d64(stats.Rounds), proper,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

func runOurs(h *graph.Graph, seed uint64) (int64, error) {
	cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
	if err != nil {
		return 0, err
	}
	p := core.DefaultParams(h.N())
	p.Seed = seed + 2
	_, stats, err := core.Color(cg, p)
	if err != nil {
		return 0, err
	}
	return stats.Rounds, nil
}

func runBaseline(h *graph.Graph, seed uint64, run func(clusterCG, *coloring.Coloring) (int64, error)) (int64, error) {
	cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
	if err != nil {
		return 0, err
	}
	col := coloring.New(h.N(), h.MaxDegree())
	rounds, err := run(cg, col)
	if err != nil {
		return 0, err
	}
	if err := coloring.VerifyComplete(h, col); err != nil {
		return 0, err
	}
	return rounds, nil
}

// All runs the full experiment battery with modest sizes. Whole experiments
// fan out across the runner's worker pool on top of the per-row parallelism
// inside each table; the emitted tables are identical at every parallelism
// level (see SetParallelism).
func All(seed uint64) ([]*Table, error) {
	type job func() (*Table, error)
	jobs := []job{
		func() (*Table, error) { return E1HighDegreeRounds([]int{30, 60, 120}, seed) },
		func() (*Table, error) { return E2LowDegreeRounds([]int{200, 400, 800}, seed) },
		func() (*Table, error) { return E3FingerprintAccuracy([]int{64, 256, 1024}, 500, 40, seed) },
		func() (*Table, error) { return E4FingerprintEncoding([]int{64, 256}, []int{16, 1024, 65536}, seed) },
		func() (*Table, error) { return E5ACDQuality([]int{30, 60}, seed) },
		func() (*Table, error) { return E6SlackGeneration([]int{50, 100, 200, 400}, seed) },
		func() (*Table, error) { return E7CabalMatching(80, []int{0, 2, 6, 12}, seed) },
		func() (*Table, error) { return E8PutAside([]int{40, 80, 160}, 4, seed) },
		func() (*Table, error) { return E9SCT(60, []int{1, 3, 6, 10}, seed) },
		func() (*Table, error) { return E10Bandwidth([]int{200, 400}, seed) },
		func() (*Table, error) {
			h, err := cachedGNP(100, 0.1, seed)
			if err != nil {
				return nil, err
			}
			return E11Dilation(h, []int{1, 4, 8, 16}, seed)
		},
		func() (*Table, error) { return E12Baselines([]int{200, 400}, seed) },
		func() (*Table, error) { return E13TryColor(400, 8, seed) },
		func() (*Table, error) { return E14PaletteQuery(40, 25, seed) },
		func() (*Table, error) { return E15Distance2([]int{100, 200}, seed) },
		func() (*Table, error) { return E16VirtualDistance2([]int{100, 200}, seed) },
		func() (*Table, error) { return E17Linial(1500, 2.0, seed) },
		func() (*Table, error) { return E18Scenarios(300, seed) },
	}
	return forEach(len(jobs), func(i int) (*Table, error) { return jobs[i]() })
}
