package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"time"

	"clustercolor/internal/acd"
	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/graph"
	"clustercolor/internal/network"
	"clustercolor/internal/parwork"
	"clustercolor/internal/putaside"
	"clustercolor/internal/slackgen"
	"clustercolor/internal/trials"
)

// colorHighDegree is Algorithm 3: ComputeACD, SlackGeneration outside
// cabals, ColoringSparse, ColoringNonCabals (Algorithm 4), ColoringCabals
// (Algorithm 5).
func colorHighDegree(cg *cluster.CG, col *coloring.Coloring, params Params, stats *Stats, rng *rand.Rand, tr StageTracer) error {
	h := cg.H
	delta := h.MaxDegree()
	stats.StageOrder = append(stats.StageOrder, "ComputeACD")
	d, prof, err := decompose(cg, params, stats, rng, tr)
	if err != nil {
		return err
	}
	ell := params.Ell(h.N())
	// Per-clique reserved prefixes; slack generation and the matchings
	// avoid the global maximum (the paper's fixed 300εΔ prefix).
	reserved := make([]int32, len(d.Cliques))
	var globalReserved int32
	for i := range d.Cliques {
		reserved[i] = params.reservedFor(prof.AvgExt[i], ell, delta)
		if reserved[i] > globalReserved {
			globalReserved = reserved[i]
		}
	}
	inCabal := func(v int) bool {
		k := d.CliqueOf[v]
		return k >= 0 && prof.IsCabal[k]
	}
	// Step 2: slack generation everywhere but cabals.
	stats.StageOrder = append(stats.StageOrder, "SlackGeneration")
	wall := time.Now()
	if _, err := slackgen.Run(cg, col, slackgen.Options{
		Activation:  params.SlackActivation,
		ReservedMax: globalReserved,
		Exclude:     inCabal,
	}, rng); err != nil {
		return err
	}
	stats.AddStageNs("slackgen", time.Since(wall))
	stats.StageOrder = append(stats.StageOrder, "ColoringSparse")
	// Step 3: color the sparse vertices (TryColor warm-up + MCT, full
	// color space — Proposition 4.5 gives them Ω(Δ) slack).
	wall = time.Now()
	if err := colorSparse(cg, col, d, stats, rng); err != nil {
		return err
	}
	stats.AddStageNs("sparse", time.Since(wall))
	// Step 4: non-cabals (Algorithm 4).
	stats.StageOrder = append(stats.StageOrder, "ColoringNonCabals")
	if err := colorNonCabals(cg, col, d, prof, reserved, globalReserved, params, stats, rng, tr); err != nil {
		return err
	}
	// Step 5: cabals (Algorithm 5).
	stats.StageOrder = append(stats.StageOrder, "ColoringCabals")
	return colorCabals(cg, col, d, prof, reserved, globalReserved, params, stats, rng, tr)
}

func colorSparse(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition, stats *Stats, rng *rand.Rand) error {
	h := cg.H
	sparse := func(v int) bool { return d.IsSparse(v) }
	space := sparseSpace(col)
	before := col.DomSize()
	if _, err := trials.TryColorLoop(cg, col, trials.TryColorOptions{
		Phase:      "sparse/try",
		Active:     sparse,
		Space:      func(v int) []int32 { return space },
		Activation: 0.5,
	}, 6, rng); err != nil {
		return err
	}
	if _, err := trials.MultiColorTrial(cg, col, trials.MCTOptions{
		Phase:  "sparse/mct",
		Active: sparse,
		Space:  func(v int) []int32 { return space },
		Seed:   rng.Uint64(),
	}, rng); err != nil {
		return err
	}
	_ = h
	stats.SparseColored = col.DomSize() - before
	return nil
}

// colorNonCabals is Algorithm 4: ColorfulMatching, ColoringOutliers,
// SynchronizedColorTrial, Complete.
func colorNonCabals(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition, prof *acd.Profile,
	reserved []int32, globalReserved int32, params Params, stats *Stats, rng *rand.Rand, tr StageTracer) error {
	h := cg.H
	delta := h.MaxDegree()
	full := sparseSpace(col)
	var cliques []int
	for i := range d.Cliques {
		if !prof.IsCabal[i] {
			cliques = append(cliques, i)
		}
	}
	if len(cliques) == 0 {
		return nil
	}
	before := col.DomSize()
	// Step 1: colorful matching, parallel across cliques.
	repeats, err := runMatchings(cg, col, d, cliques, globalReserved, params, false, stats, rng, tr, "matching/noncabals")
	if err != nil {
		return err
	}
	stats.MatchingRepeats += sum(repeats)
	// Inlier classification (Equation 4): ẽ_v ≤ c·ẽ_K and
	// x_v ≤ M_K/2 + ẽ_K/2 (scaled γ).
	inlier := make([]bool, h.N())
	for idx, i := range cliques {
		mk := float64(repeats[idx])
		for _, v := range d.Cliques[i] {
			xv := prof.AntiDegreeProxy(v, delta)
			inlier[v] = prof.ExtDeg[v] <= params.InlierExtFactor*math.Max(prof.AvgExt[i], 1) &&
				xv <= mk/2+0.5*math.Max(prof.AvgExt[i], 1)
		}
	}
	// Step 2: color outliers with non-reserved colors.
	if err := colorSubset(cg, col, "noncabal/outliers", func(v int) bool {
		k := d.CliqueOf[v]
		return k >= 0 && !prof.IsCabal[k] && !inlier[v]
	}, func(v int) []int32 {
		return rangeView(full, reserved[d.CliqueOf[v]]+1, col.MaxColor())
	}, rng); err != nil {
		return err
	}
	// Step 3: synchronized color trial per clique (parallel).
	if err := runSCTs(cg, col, d, cliques, reserved, inlier, nil, stats, rng, tr, "sct/noncabals"); err != nil {
		return err
	}
	// Step 4: Complete (Algorithm 11).
	if err := complete(cg, col, d, cliques, reserved, inlier, full, stats, rng); err != nil {
		return err
	}
	stats.NonCabalColored = col.DomSize() - before
	return nil
}

// complete is Algorithm 11: Phase I tries non-reserved clique-palette colors
// to shrink the slack-poor set; Phase II finishes on reserved colors with
// MultiColorTrial.
func complete(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition,
	cliques []int, reserved []int32, inlier []bool, full []int32, stats *Stats, rng *rand.Rand) error {
	h := cg.H
	active := func(v int) bool {
		k := d.CliqueOf[v]
		if k < 0 || !containsInt(cliques, k) {
			return false
		}
		return inlier[v]
	}
	// Phase I: O(1) iterations of TryColor on L(K) \ [r_K]. The per-clique
	// palettes and their non-reserved views are rebuilt in place each
	// iteration — no per-vertex or per-iteration allocation.
	palettes := make(map[int]*coloring.CliquePalette, len(cliques))
	spaces := make(map[int][]int32, len(cliques))
	for iter := 0; iter < 3; iter++ {
		wall := time.Now()
		if err := buildPalettes(cg, col, d, cliques, palettes); err != nil {
			return err
		}
		stats.AddStageNs("palettes", time.Since(wall))
		for _, i := range cliques {
			space := spaces[i][:0]
			for _, c := range palettes[i].FreeView() {
				if c > reserved[i] {
					space = append(space, c)
				}
			}
			spaces[i] = space
		}
		coloring.ChargeQuery(cg, "complete/query")
		if _, err := trials.TryColorRound(cg, col, trials.TryColorOptions{
			Phase:      "complete/phase1",
			Active:     active,
			Activation: 0.7,
			Space: func(v int) []int32 {
				return spaces[d.CliqueOf[v]]
			},
		}, rng); err != nil {
			return err
		}
	}
	// Phase II: reserved colors via MCT.
	_, err := trials.MultiColorTrial(cg, col, trials.MCTOptions{
		Phase:  "complete/phase2",
		Active: active,
		Space: func(v int) []int32 {
			return rangeView(full, 1, reserved[d.CliqueOf[v]])
		},
		Seed: rng.Uint64(),
	}, rng)
	_ = h
	return err
}

// colorCabals is Algorithm 5.
func colorCabals(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition, prof *acd.Profile,
	reserved []int32, globalReserved int32, params Params, stats *Stats, rng *rand.Rand, tr StageTracer) error {
	h := cg.H
	full := sparseSpace(col)
	var cabals []int
	for i := range d.Cliques {
		if prof.IsCabal[i] {
			cabals = append(cabals, i)
		}
	}
	if len(cabals) == 0 {
		return nil
	}
	before := col.DomSize()
	// Step 1: colorful matching with the cabal-specific fingerprint
	// algorithm as backup.
	repeats, err := runMatchings(cg, col, d, cabals, globalReserved, params, true, stats, rng, tr, "matching/cabals")
	if err != nil {
		return err
	}
	stats.MatchingRepeats += sum(repeats)
	// Inliers in cabals need only low external degree (Section 4.3).
	inlier := make([]bool, h.N())
	for _, i := range cabals {
		for _, v := range d.Cliques[i] {
			inlier[v] = prof.ExtDeg[v] <= params.InlierExtFactor*math.Max(prof.AvgExt[i], 1)
		}
	}
	// Step 2: outliers.
	if err := colorSubset(cg, col, "cabal/outliers", func(v int) bool {
		k := d.CliqueOf[v]
		return k >= 0 && prof.IsCabal[k] && !inlier[v]
	}, func(v int) []int32 {
		return rangeView(full, reserved[d.CliqueOf[v]]+1, col.MaxColor())
	}, rng); err != nil {
		return err
	}
	// Step 3: put-aside sets, sized to the reserved prefix but never more
	// than a quarter of the uncolored inliers.
	cabalMembers := make([][]int, len(cabals))
	rs := make([]int, len(cabals))
	for idx, i := range cabals {
		cabalMembers[idx] = d.Cliques[i]
		un := 0
		for _, v := range d.Cliques[i] {
			if !col.IsColored(v) && inlier[v] {
				un++
			}
		}
		r := int(reserved[i])
		if r > un/4 {
			r = un / 4
		}
		rs[idx] = r
	}
	maxR := 0
	for _, r := range rs {
		if r > maxR {
			maxR = r
		}
	}
	putAside := make([][]int, len(cabals))
	if maxR > 0 {
		// ComputePutAside takes a single r; use the per-cabal minimum cap
		// by trimming afterwards.
		ps, err := putaside.ComputePutAside(cg, col, putaside.ComputeOptions{
			Phase:    "cabal/putaside",
			Cabals:   cabalMembers,
			Eligible: func(v int) bool { return inlier[v] },
			R:        maxR,
		}, rng)
		if err != nil {
			return err
		}
		for idx := range ps {
			if len(ps[idx]) > rs[idx] {
				ps[idx] = ps[idx][:rs[idx]]
			}
			putAside[idx] = ps[idx]
		}
	}
	inPutAside := make(map[int]bool)
	for _, ps := range putAside {
		for _, v := range ps {
			inPutAside[v] = true
		}
	}
	// Step 4: synchronized color trial (participants exclude put-aside).
	if err := runSCTs(cg, col, d, cabals, reserved, inlier, inPutAside, stats, rng, tr, "sct/cabals"); err != nil {
		return err
	}
	// Step 5: MultiColorTrial on reserved colors for the rest (not
	// put-aside).
	if _, err := trials.MultiColorTrial(cg, col, trials.MCTOptions{
		Phase: "cabal/mct",
		Active: func(v int) bool {
			k := d.CliqueOf[v]
			return k >= 0 && prof.IsCabal[k] && inlier[v] && !inPutAside[v]
		},
		Space: func(v int) []int32 {
			return rangeView(full, 1, reserved[d.CliqueOf[v]])
		},
		Seed: rng.Uint64(),
	}, rng); err != nil {
		return err
	}
	// Any non-put-aside cabal vertex still uncolored gets a palette pass
	// so put-aside coloring starts from the paper's precondition.
	cleanupScratch := coloring.NewPaletteScratch()
	if err := colorSubset(cg, col, "cabal/cleanup", func(v int) bool {
		k := d.CliqueOf[v]
		return k >= 0 && prof.IsCabal[k] && !inPutAside[v]
	}, func(v int) []int32 {
		return cleanupScratch.Palette(h, col, v)
	}, rng); err != nil {
		return err
	}
	// Step 6: color put-aside sets via donation (parallel across cabals).
	// The per-cabal job body lives in DonateJob (seams.go); the tasks pin
	// the forbidden-donor flags (Lemma 7.2 Property 2) up front.
	donateWall := time.Now()
	lg := bits.Len(uint(h.N()))
	donateSeed := rng.Uint64()
	cover := coverPutAside(h, putAside)
	tasks := make([]DonateTask, len(cabals))
	for idx := range cabals {
		members := cabalMembers[idx]
		task := DonateTask{
			Members:            members,
			PutAside:           make([]int, len(putAside[idx])),
			Inlier:             make([]bool, len(members)),
			Forbidden:          make([]bool, len(members)),
			FreeColorThreshold: 4 * len(putAside[idx]),
			BlockSize:          maxInt(8, lg),
			SampleTries:        4 * lg,
		}
		for j, v := range members {
			task.Inlier[j] = inlier[v]
		}
		for j, v := range putAside[idx] {
			if task.PutAside[j] = slices.Index(members, v); task.PutAside[j] < 0 {
				return fmt.Errorf("core: put-aside vertex %d outside cabal %d", v, idx)
			}
		}
		if len(task.PutAside) > 0 {
			// Forbidden-donor marking only matters where donation will run
			// (DonateJob is a no-op on an empty put-aside set).
			for j, v := range members {
				task.Forbidden[j] = cover.foreign(v, idx)
			}
		}
		tasks[idx] = task
	}
	var snap *coloring.Coloring
	chargedBefore := cg.Cost().Rounds()
	if tr != nil {
		snap = col.Clone()
	}
	dstats, writes, dropped, err := runPerClique(cg, col, "cabal/donate", len(cabals), donateSeed, tr != nil,
		func(idx int) []int { return tasks[idx].Members },
		func(idx int, v *coloring.CliqueView, crng *rand.Rand) (DonateAux, error) {
			return DonateJob(v, tasks[idx], crng)
		})
	if err != nil {
		return err
	}
	stats.ParallelDroppedWrites += dropped
	stats.AddStageNs("donate", time.Since(donateWall))
	for _, ds := range dstats {
		stats.PutAsideDonated += ds.Donated
		stats.PutAsideFree += ds.Free
		stats.PutAsideFallback += ds.Fallback
	}
	if tr != nil {
		tr(&StageTrace{
			Stage:         "donate",
			BaseSeed:      donateSeed,
			Snapshot:      snap,
			ChargedRounds: cg.Cost().Rounds() - chargedBefore,
			Donate:        tasks,
			Writes:        writes,
			DonateAux:     dstats,
		})
	}
	stats.CabalColored = col.DomSize() - before
	return nil
}

// putAsideCover records, for every vertex, which cabals' put-aside sets
// cover it — contain it or one of its neighbors: first[v] is the lowest
// such cabal index (-1 for none) and twice[v] reports a second, distinct
// one.
type putAsideCover struct {
	first []int32
	twice []bool
}

// coverPutAside builds the cover in one pass over every put-aside set.
func coverPutAside(h *graph.Graph, putAside [][]int) putAsideCover {
	c := putAsideCover{first: make([]int32, h.N()), twice: make([]bool, h.N())}
	for v := range c.first {
		c.first[v] = -1
	}
	mark := func(v, j int) {
		switch f := c.first[v]; {
		case f < 0:
			c.first[v] = int32(j)
		case int(f) != j:
			c.twice[v] = true
		}
	}
	for j, ps := range putAside {
		for _, v := range ps {
			mark(v, j)
			for _, u := range h.Neighbors(v) {
				mark(int(u), j)
			}
		}
	}
	return c
}

// foreign reports whether a cabal other than k covers v: for a member v of
// cabal k, that makes v a forbidden donor (Lemma 7.2 Property 2).
func (c putAsideCover) foreign(v, k int) bool {
	f := c.first[v]
	return f >= 0 && (int(f) != k || c.twice[v])
}

// runMatchings executes the colorful matching per clique in parallel
// (snapshot views, derived RNG streams, scratch cost models merged as a
// max). withFingerprint enables the cabal backup algorithm (Proposition
// 4.15). The per-clique job body lives in MatchingJob (seams.go) so the
// distsim conformance harness can drive it in isolation.
func runMatchings(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition,
	cliques []int, globalReserved int32, params Params, withFingerprint bool, stats *Stats, rng *rand.Rand,
	tr StageTracer, stageLabel string) ([]int, error) {
	wall := time.Now()
	defer func() { stats.AddStageNs("matchings", time.Since(wall)) }()
	h := cg.H
	lg := bits.Len(uint(h.N()))
	baseSeed := rng.Uint64()
	tasks := make([]MatchingTask, len(cliques))
	for idx, i := range cliques {
		members := d.Cliques[i]
		// A clique that fits in the palette needs no matching.
		need := len(members) - (h.MaxDegree() + 1)
		target := need + 2*lg
		if target < lg {
			target = lg
		}
		tasks[idx] = MatchingTask{
			Members:           members,
			ReservedMax:       globalReserved,
			Rounds:            8,
			TargetRepeats:     target,
			WithFingerprint:   withFingerprint,
			FingerprintTrials: params.MatchingTrialFactor * lg,
		}
	}
	var snap *coloring.Coloring
	before := cg.Cost().Rounds()
	if tr != nil {
		snap = col.Clone()
	}
	repeats, writes, dropped, err := runPerClique(cg, col, "matching", len(cliques), baseSeed, tr != nil,
		func(idx int) []int { return tasks[idx].Members },
		func(idx int, v *coloring.CliqueView, crng *rand.Rand) (int, error) {
			return MatchingJob(v, tasks[idx], crng)
		})
	stats.ParallelDroppedWrites += dropped
	if err == nil && tr != nil {
		tr(&StageTrace{
			Stage:           stageLabel,
			BaseSeed:        baseSeed,
			Snapshot:        snap,
			ChargedRounds:   cg.Cost().Rounds() - before,
			Matching:        tasks,
			Writes:          writes,
			MatchingRepeats: repeats,
		})
	}
	return repeats, err
}

// runSCTs executes the synchronized color trial per clique in parallel.
// Participants are uncolored inliers excluding any put-aside set, capped by
// the clique palette's non-reserved capacity (Lemma 4.13's precondition).
// The per-clique job body lives in SCTJob (seams.go).
func runSCTs(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition,
	cliques []int, reserved []int32, inlier []bool, exclude map[int]bool, stats *Stats, rng *rand.Rand,
	tr StageTracer, stageLabel string) error {
	wall := time.Now()
	defer func() { stats.AddStageNs("scts", time.Since(wall)) }()
	baseSeed := rng.Uint64()
	tasks := make([]SCTTask, len(cliques))
	for idx, i := range cliques {
		members := d.Cliques[i]
		task := SCTTask{
			Members:     members,
			ReservedMax: reserved[i],
			Inlier:      make([]bool, len(members)),
			Exclude:     make([]bool, len(members)),
		}
		for j, v := range members {
			task.Inlier[j] = inlier[v]
			task.Exclude[j] = exclude != nil && exclude[v]
		}
		tasks[idx] = task
	}
	var snap *coloring.Coloring
	before := cg.Cost().Rounds()
	if tr != nil {
		snap = col.Clone()
	}
	colored, writes, dropped, err := runPerClique(cg, col, "sct", len(cliques), baseSeed, tr != nil,
		func(idx int) []int { return tasks[idx].Members },
		func(idx int, v *coloring.CliqueView, crng *rand.Rand) (int, error) {
			return SCTJob(v, tasks[idx], crng)
		})
	stats.ParallelDroppedWrites += dropped
	if err == nil && tr != nil {
		tr(&StageTrace{
			Stage:         stageLabel,
			BaseSeed:      baseSeed,
			Snapshot:      snap,
			ChargedRounds: cg.Cost().Rounds() - before,
			SCT:           tasks,
			Writes:        writes,
			SCTColored:    colored,
		})
	}
	return err
}

// buildPalettes rebuilds the clique palettes for the given cliques in
// parallel (a read-only aggregation), charging one parallel build. Existing
// entries in out are rebuilt in place so iterated callers allocate nothing.
func buildPalettes(cg *cluster.CG, col *coloring.Coloring, d *acd.Decomposition,
	cliques []int, out map[int]*coloring.CliquePalette) error {
	type built struct {
		cp  *coloring.CliquePalette
		sub *network.CostModel
	}
	res, err := parwork.ForEach(len(cliques), func(idx int) (built, error) {
		sub, err := network.NewCostModel(cg.Cost().Bandwidth())
		if err != nil {
			return built{}, err
		}
		subCG := cg.WithCost(sub)
		cp := coloring.RebuildCliquePalette(out[cliques[idx]], subCG, col, d.Cliques[cliques[idx]])
		return built{cp: cp, sub: sub}, nil
	})
	if err != nil {
		return err
	}
	subs := make([]*network.CostModel, len(res))
	for idx, b := range res {
		out[cliques[idx]] = b.cp
		subs[idx] = b.sub
	}
	cg.Cost().AbsorbParallel("palette/build", subs)
	return nil
}

// colorSubset colors an active set with a warm-up TryColor loop followed by
// MultiColorTrial over the given space.
func colorSubset(cg *cluster.CG, col *coloring.Coloring, phase string,
	active func(v int) bool, space func(v int) []int32, rng *rand.Rand) error {
	if _, err := trials.TryColorLoop(cg, col, trials.TryColorOptions{
		Phase:      phase + "/try",
		Active:     active,
		Space:      space,
		Activation: 0.5,
	}, 4, rng); err != nil {
		return err
	}
	_, err := trials.MultiColorTrial(cg, col, trials.MCTOptions{
		Phase:  phase + "/mct",
		Active: active,
		Space:  space,
		Seed:   rng.Uint64(),
	}, rng)
	return err
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
