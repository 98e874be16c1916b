package experiments

import (
	"fmt"
	"math/bits"

	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/graph"
	"clustercolor/internal/matching"
	"clustercolor/internal/putaside"
	"clustercolor/internal/sketch"
	"clustercolor/internal/trials"
)

// The ablations A1–A5 (see the package doc's index) quantify the pipeline's
// design choices: each table removes or replaces one mechanism and reports
// what it costs.

// A1Encoding compares the deviation encoding of Lemma 5.6 against the naive
// fixed-width encoding in the rounds it implies at Θ(log n) bandwidth.
func A1Encoding(trialCounts []int, dTrue int, bandwidth int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "Ablation — deviation encoding vs naive fixed-width (Lemma 5.6)",
		Header: []string{"trials", "devBits", "naiveBits", "devRounds", "naiveRounds", "saving"},
		Notes:  fmt.Sprintf("rounds = ⌈bits/%d⌉ per hop; the saving is what makes O(ξ⁻²)-round waves possible", bandwidth),
	}
	rows, err := forEach(len(trialCounts), func(i int) ([]string, error) {
		trials := trialCounts[i]
		rng := graph.NewRand(rowSeed(seed, i))
		s := fingerprintOf(dTrue, trials, rng)
		var sc sketch.Scratch[int8]
		dev := sc.EncodedBits(s)
		maxY := 1
		for _, y := range s {
			if int(y) > maxY {
				maxY = int(y)
			}
		}
		naive := trials * (intLog2(maxY) + 1)
		devR := (dev + bandwidth - 1) / bandwidth
		naiveR := (naive + bandwidth - 1) / bandwidth
		return []string{
			d(trials), d(dev), d(naive), d(devR), d(naiveR),
			fmt.Sprintf("%.1fx", float64(naiveR)/float64(devR)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// A2CabalMatching compares the sampling matching alone against sampling
// plus the FingerprintMatching backup in the cabal regime (few anti-edges).
func A2CabalMatching(n, plantedPairs int, seeds int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  fmt.Sprintf("Ablation — cabal matching: sampling vs +fingerprint backup (n=%d, %d anti-pairs)", n, plantedPairs),
		Header: []string{"variant", "meanRepeats", "runs≥half"},
		Notes:  "in cabals (a_K = O(log n)) sampling alone under-produces; Proposition 4.15's backup closes the gap",
	}
	build := func() (*graph.Graph, error) {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				anti := v == u+1 && u%2 == 0 && u/2 < plantedPairs
				if !anti {
					if err := b.AddEdge(u, v); err != nil {
						return nil, err
					}
				}
			}
		}
		return b.Build(), nil
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	for _, withBackup := range []bool{false, true} {
		total := 0
		good := 0
		for s := 0; s < seeds; s++ {
			h, err := build()
			if err != nil {
				return nil, err
			}
			cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+uint64(s))
			if err != nil {
				return nil, err
			}
			view, err := coloring.NewCliqueView(cg, coloring.New(h.N(), h.MaxDegree()), members)
			if err != nil {
				return nil, err
			}
			rng := graph.NewRand(seed + 100 + uint64(s))
			m, err := matching.Sampling(view, matching.SamplingOptions{
				Phase:  "a2",
				Rounds: 8,
			}, rng)
			if err != nil {
				return nil, err
			}
			if withBackup && m < plantedPairs {
				var uncolored []int
				for i, c := range view.Colors {
					if c == coloring.None {
						uncolored = append(uncolored, i)
					}
				}
				pairs, err := matching.FingerprintMatching(view, matching.FingerprintOptions{
					Phase:   "a2fp",
					Members: uncolored,
					Trials:  10 * bits.Len(uint(n)),
				}, rng)
				if err != nil {
					return nil, err
				}
				colored, err := matching.ColorPairs(view, pairs, 0, "a2cp", rng)
				if err != nil {
					return nil, err
				}
				m += colored
			}
			total += m
			if 2*m >= plantedPairs {
				good++
			}
		}
		name := "sampling-only"
		if withBackup {
			name = "sampling+fingerprint"
		}
		t.Rows = append(t.Rows, []string{
			name, f1(float64(total) / float64(seeds)), fmt.Sprintf("%d/%d", good, seeds),
		})
	}
	return t, nil
}

// A3PutAside compares the donation scheme against a fallback-only variant
// (exact palette lookups) in rounds, on the Section 2.4 setting. The
// donation advantage is the Figure 2 gap — O(log n / bandwidth) vs
// Ω(Δ/bandwidth) — so it emerges once Δ dwarfs the link budget.
func A3PutAside(cliqueSize, r, bandwidth int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  fmt.Sprintf("Ablation — put-aside: donation vs exact-palette fallback (|K|=%d, r=%d, B=%d)", cliqueSize, r, bandwidth),
		Header: []string{"variant", "viaDonation", "viaFallback", "rounds"},
		Notes:  "fallback pays the Figure 2 price Ω(Δ/B) per wave; donation stays O(log n / B) = O(1)",
	}
	for _, donationOn := range []bool{true, false} {
		h, blocks, err := graph.PlantedCabals(graph.CabalSpec{NumCliques: 2, CliqueSize: cliqueSize, External: 3}, graph.NewRand(seed))
		if err != nil {
			return nil, err
		}
		cg, err := buildCG(h, graph.TopologySingleton, 1, bandwidth, seed+1)
		if err != nil {
			return nil, err
		}
		cabals := make([][]int, 2)
		for v := 0; v < h.N(); v++ {
			cabals[blocks[v]] = append(cabals[blocks[v]], v)
		}
		col := coloring.New(h.N(), h.MaxDegree())
		rng := graph.NewRand(seed + 2)
		ps, err := putaside.ComputePutAside(cg, col, putaside.ComputeOptions{Phase: "a3", Cabals: cabals, R: r}, rng)
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
				return nil, fmt.Errorf("experiments: a3 preparation stuck")
			}
			if err := col.Set(v, pal[0]); err != nil {
				return nil, err
			}
		}
		before := cg.Cost().Rounds()
		don, fb := 0, 0
		lg := bits.Len(uint(h.N()))
		for i, members := range cabals {
			sampleTries := 4 * lg
			if !donationOn {
				sampleTries = 1 // cripple donation: one try, then fallback
			}
			view, putAside, err := cabalView(cg, col, members, ps[i])
			if err != nil {
				return nil, err
			}
			opts := putaside.DonateOptions{
				Phase:              "a3/donate",
				PutAside:           putAside,
				FreeColorThreshold: 1 << 20, // never take the free-color shortcut
				BlockSize:          8,
				SampleTries:        sampleTries,
			}
			if !donationOn {
				// Forbid every donor: the scheme finds none and falls back.
				opts.ForbiddenDonors = make([]bool, len(members))
				for j := range opts.ForbiddenDonors {
					opts.ForbiddenDonors[j] = true
				}
			}
			res, err := putaside.ColorPutAside(view, opts, rng)
			if err != nil {
				return nil, err
			}
			if err := view.Store(col); err != nil {
				return nil, err
			}
			don += res.ViaDonation
			fb += res.ViaFallback
			if res.Uncolored != 0 {
				return nil, fmt.Errorf("experiments: a3 left %d uncolored", res.Uncolored)
			}
		}
		name := "donation"
		if !donationOn {
			name = "fallback-only"
		}
		t.Rows = append(t.Rows, []string{name, d(don), d(fb), d64(cg.Cost().Rounds() - before)})
	}
	return t, nil
}

// A4MCTGrowth compares MultiColorTrial's exponential try-growth against
// single-color trials (TryColor repeated) on a slack-1 clique — the regime
// where growth matters.
func A4MCTGrowth(cliqueSize int, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A4",
		Title:  fmt.Sprintf("Ablation — MCT exponential growth vs single trials (K_%d, slack 1)", cliqueSize),
		Header: []string{"variant", "finished", "hRounds"},
		Notes:  "single trials need Θ(log n) waves on slack-1 instances; growing tries collapse that",
	}
	run := func(mct bool) (bool, int64, error) {
		h := graph.Clique(cliqueSize)
		cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return false, 0, err
		}
		col := coloring.New(h.N(), h.MaxDegree())
		space := trials.RangeSpace(1, col.MaxColor())
		rng := graph.NewRand(seed + 2)
		before := cg.Cost().Rounds()
		if mct {
			left, err := trials.MultiColorTrial(cg, col, trials.MCTOptions{
				Phase:     "a4/mct",
				Space:     func(v int) []int32 { return space },
				Seed:      seed,
				MaxPhases: 2 * cliqueSize,
			}, rng)
			if err != nil {
				return false, 0, err
			}
			return left == 0, cg.Cost().Rounds() - before, nil
		}
		left, err := trials.TryColorLoop(cg, col, trials.TryColorOptions{
			Phase:      "a4/single",
			Space:      func(v int) []int32 { return space },
			Activation: 0.5,
		}, 40*cliqueSize, rng)
		if err != nil {
			return false, 0, err
		}
		return left == 0, cg.Cost().Rounds() - before, nil
	}
	for _, mct := range []bool{true, false} {
		done, rounds, err := run(mct)
		if err != nil {
			return nil, err
		}
		name := "multicolortrial"
		if !mct {
			name = "single-trials"
		}
		fin := "yes"
		if !done {
			fin = "NO"
		}
		t.Rows = append(t.Rows, []string{name, fin, d64(rounds)})
	}
	return t, nil
}

// A5ReservedFraction sweeps the reserved-color budget on a cabal-heavy
// instance, showing the trade-off Equation (2) fixes: too few reserved
// colors starve the final MCT, too many starve the earlier stages.
func A5ReservedFraction(fracs []float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A5",
		Title:  "Ablation — reserved-color budget (Equation 2)",
		Header: []string{"capFrac", "rounds", "fallbackRounds", "fallbackColored"},
		Notes:  "the reserved prefix must cover put-aside demand without starving non-reserved stages",
	}
	h, _, err := graph.PlantedCabals(graph.CabalSpec{NumCliques: 3, CliqueSize: 50, External: 2}, graph.NewRand(seed))
	if err != nil {
		return nil, err
	}
	rows, err := forEach(len(fracs), func(i int) ([]string, error) {
		frac := fracs[i]
		cg, err := buildCG(h, graph.TopologySingleton, 1, 48, seed+1)
		if err != nil {
			return nil, err
		}
		p := core.DefaultParams(h.N())
		p.Seed = seed + 2
		p.ReservedCapFrac = frac
		p.DeltaLow = 20
		_, stats, err := core.Color(cg, p)
		if err != nil {
			return nil, err
		}
		return []string{
			f3(frac), d64(stats.Rounds), d64(stats.FallbackRounds), d(stats.FallbackColored),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Ablations runs the full ablation battery.
func Ablations(seed uint64) ([]*Table, error) {
	type job func() (*Table, error)
	jobs := []job{
		func() (*Table, error) { return A1Encoding([]int{64, 256, 1024}, 5000, 48, seed) },
		func() (*Table, error) { return A2CabalMatching(70, 8, 5, seed) },
		func() (*Table, error) { return A3PutAside(400, 4, 14, seed) },
		func() (*Table, error) { return A4MCTGrowth(40, seed) },
		func() (*Table, error) { return A5ReservedFraction([]float64{0.05, 0.2, 0.5}, seed) },
	}
	return forEach(len(jobs), func(i int) (*Table, error) { return jobs[i]() })
}
