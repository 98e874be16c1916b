package distsim

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"clustercolor/internal/coloring"
	"clustercolor/internal/core"
	"clustercolor/internal/fingerprint"
	"clustercolor/internal/parwork"
	"clustercolor/internal/prng"
	"clustercolor/internal/sketch"
)

// A clique's leaders replay the vertex-level decision procedure of their
// stage from the gossiped records and the shared seed. Every step below
// mirrors its vertex-level counterpart statement for statement —
// matching.Sampling / FingerprintMatching / ColorPairs, the sct.Run trial,
// and putaside.ColorPutAside — consuming the derived RNG stream in the
// identical order, so the outcome is byte-identical by construction and any
// divergence (missing information, wrong message content, order dependence)
// fails the conformance byte-comparison. Availability and palette queries
// run through coloring.PaletteScratch over the received bitsets: the same
// bitset machinery the vertex-level hot paths use, assembled from messages
// instead of from the graph.

// cliqueState is a leader's materialized view of its clique: evolving
// member colors plus the static record data.
type cliqueState struct {
	rt      *cliqueStatics
	color   []int32 // evolving member colors (snapshot at start)
	scratch *coloring.PaletteScratch
}

type cliqueStatics struct {
	n        int // H vertices (for min-wise hash domains)
	maxColor int32
	members  []int
	idxOf    map[int]int
	adj      [][]uint64
	ext      [][]uint64
}

func newCliqueState(rt *stageRuntime, k int, records []memberRecord) *cliqueState {
	members := rt.spec.members(k)
	st := &cliqueState{
		rt: &cliqueStatics{
			n:        rt.n,
			maxColor: int32(rt.delta + 1),
			members:  members,
			idxOf:    make(map[int]int, len(members)),
			adj:      make([][]uint64, len(members)),
			ext:      make([][]uint64, len(members)),
		},
		color:   make([]int32, len(members)),
		scratch: coloring.NewPaletteScratch(),
	}
	for j, v := range members {
		st.rt.idxOf[v] = j
	}
	for _, rec := range records {
		st.color[rec.idx] = rec.color
		st.rt.adj[rec.idx] = rec.adj
		st.rt.ext[rec.idx] = rec.ext
	}
	return st
}

// stageRNG reconstructs the per-clique RNG stream exactly as the parallel
// vertex-level stage loop does from its RowSeed-derived seed.
func stageRNG(seed uint64) *rand.Rand { return parwork.StreamRNG(seed) }

func (st *cliqueState) hasEdge(i, j int) bool {
	return st.rt.adj[i][j>>6]&(1<<uint(j&63)) != 0
}

func (st *cliqueState) extHolds(i int, c int32) bool {
	return st.rt.ext[i][c>>6]&(1<<uint(c&63)) != 0
}

// memberNeighborHolds reports whether a member-neighbor of i currently
// holds c, optionally excluding one member.
func (st *cliqueState) memberNeighborHolds(i int, c int32, exclude int) bool {
	for j := range st.rt.members {
		if j == i || j == exclude || !st.hasEdge(i, j) {
			continue
		}
		if st.color[j] == c {
			return true
		}
	}
	return false
}

// available mirrors coloring.Available over the message-built neighborhood.
func (st *cliqueState) available(i int, c int32) bool {
	if c < 1 || c > st.rt.maxColor {
		return false
	}
	return !st.extHolds(i, c) && !st.memberNeighborHolds(i, c, -1)
}

// usedScratch mirrors PaletteScratch.Load for member i: the scratch holds
// φ(N(member i)) assembled from the external bitset and the current member
// colors; LoadedAvailable and FreeColors then answer exactly as they do for
// the vertex-level code.
func (st *cliqueState) usedScratch(i int) *coloring.PaletteScratch {
	s := st.scratch
	s.Reset(st.rt.maxColor)
	s.MarkWords(st.rt.ext[i])
	for j := range st.rt.members {
		if j != i && st.hasEdge(i, j) {
			s.Mark(st.color[j])
		}
	}
	return s
}

// properAt mirrors putaside's post-swap safety check.
func (st *cliqueState) properAt(i int) bool {
	c := st.color[i]
	if c == coloring.None {
		return true
	}
	return !st.extHolds(i, c) && !st.memberNeighborHolds(i, c, -1)
}

// --- colorful matching ---------------------------------------------------

// replayMatching mirrors core.MatchingJob: matching.Sampling with the
// optional fingerprint backup (FingerprintMatching + ColorPairs).
func (st *cliqueState) replayMatching(task core.MatchingTask, seed uint64) (int, error) {
	rng := stageRNG(seed)
	repeats, err := st.replaySampling(task, rng)
	if err != nil {
		return 0, err
	}
	if task.WithFingerprint && repeats < task.TargetRepeats && len(task.Members) >= 8 {
		var uncolored []int
		for i := range st.rt.members {
			if st.color[i] == coloring.None {
				uncolored = append(uncolored, i)
			}
		}
		if len(uncolored) >= 4 {
			pairs, err := st.replayFingerprintMatching(uncolored, task.FingerprintTrials, task.TargetRepeats-repeats, rng)
			if err != nil {
				return 0, err
			}
			colored, err := st.replayColorPairs(pairs, task.ReservedMax, rng)
			if err != nil {
				return 0, err
			}
			repeats += colored
		}
	}
	return repeats, nil
}

// replaySampling mirrors matching.Sampling. Iterating the color classes in
// ascending order is equivalent to the vertex code's map iteration: a
// vertex proposes exactly one color per round, and a class's outcome
// depends only on colors equal to it, so classes are independent.
func (st *cliqueState) replaySampling(task core.MatchingTask, rng *rand.Rand) (int, error) {
	if len(task.Members) == 0 {
		return 0, fmt.Errorf("distsim: empty clique in matching replay")
	}
	rounds := task.Rounds
	if rounds <= 0 {
		rounds = 8
	}
	if task.ReservedMax >= st.rt.maxColor {
		return 0, fmt.Errorf("distsim: reserved prefix %d leaves no colors", task.ReservedMax)
	}
	repeats := 0
	for r := 0; r < rounds; r++ {
		if task.TargetRepeats > 0 && repeats >= task.TargetRepeats {
			break
		}
		byColor := make(map[int32][]int)
		for i := range st.rt.members {
			if st.color[i] != coloring.None {
				continue
			}
			c := task.ReservedMax + 1 + int32(rng.IntN(int(st.rt.maxColor-task.ReservedMax)))
			byColor[c] = append(byColor[c], i)
		}
		classes := make([]int, 0, len(byColor))
		for c := range byColor {
			classes = append(classes, int(c))
		}
		sort.Ints(classes)
		for _, ci := range classes {
			c := int32(ci)
			var ok []int
			for _, i := range byColor[c] {
				if st.available(i, c) {
					ok = append(ok, i)
				}
			}
			var group []int
			for _, i := range ok {
				indep := true
				for _, j := range group {
					if st.hasEdge(i, j) {
						indep = false
						break
					}
				}
				if indep {
					group = append(group, i)
				}
			}
			if len(group) < 2 {
				continue
			}
			for _, i := range group {
				st.color[i] = c
			}
			repeats += len(group) - 1
		}
	}
	return repeats, nil
}

// replayFingerprintMatching mirrors matching.FingerprintMatching over the
// uncolored members (member indices in). Returned pairs hold member indices.
func (st *cliqueState) replayFingerprintMatching(in []int, trials, targetPairs int, rng *rand.Rand) ([][2]int, error) {
	k := trials
	if k <= 0 {
		return nil, fmt.Errorf("distsim: trial count %d must be positive", k)
	}
	if len(in) < 2 {
		return nil, fmt.Errorf("distsim: cabal of size %d too small", len(in))
	}
	var samples, yV sketch.Arena[int8]
	samples.Reset(len(in), k)
	for a := range in {
		fingerprint.Draw(samples.Row(a), rng)
	}
	yK := emptyRow(make([]int8, k))
	for a := range in {
		sketch.MergeMax8(yK, samples.Row(a))
	}
	yV.Reset(len(in), k)
	for a, i := range in {
		s := emptyRow(yV.Row(a))
		for b, j := range in {
			if j != i && st.hasEdge(i, j) {
				sketch.MergeMax8(s, samples.Row(b))
			}
		}
	}
	uniqueMaxCount := make(map[int]int)
	type trial struct {
		u    int
		anti []int
	}
	var kept []trial
	for t := 0; t < k; t++ {
		maxVal := yK[t]
		var holder, count int
		for a, i := range in {
			if samples.Row(a)[t] == maxVal {
				holder = i
				count++
				if count > 1 {
					break
				}
			}
		}
		if count != 1 {
			continue
		}
		uniqueMaxCount[holder]++
		if uniqueMaxCount[holder] > 1 {
			continue
		}
		var anti []int
		for a, i := range in {
			if i != holder && yV.Row(a)[t] != maxVal {
				anti = append(anti, i)
			}
		}
		if len(anti) == 0 {
			continue
		}
		kept = append(kept, trial{u: holder, anti: anti})
	}
	type pick struct{ u, w int }
	var picks []pick
	for _, tr := range kept {
		// The min-wise hash runs over vertex identifiers, as at vertex level.
		h, err := prng.NewMinWiseHash(st.rt.n, 0.5, rng)
		if err != nil {
			return nil, err
		}
		ids := make([]int, len(tr.anti))
		for a, i := range tr.anti {
			ids[a] = st.rt.members[i]
		}
		w := h.ArgMin(ids)
		if w < 0 {
			continue
		}
		picks = append(picks, pick{u: tr.u, w: st.rt.idxOf[w]})
	}
	sampledAsW := make(map[int]bool)
	for _, p := range picks {
		sampledAsW[p.w] = true
	}
	usedW := make(map[int]bool)
	var pairs [][2]int
	for _, p := range picks {
		if sampledAsW[p.u] || usedW[p.w] {
			continue
		}
		usedW[p.w] = true
		pairs = append(pairs, [2]int{p.u, p.w})
		if targetPairs > 0 && len(pairs) >= targetPairs {
			break
		}
	}
	seen := make(map[int]bool)
	for _, p := range pairs {
		if st.hasEdge(p[0], p[1]) {
			return nil, fmt.Errorf("distsim: pair {%d,%d} is an edge, not an anti-edge", p[0], p[1])
		}
		if seen[p[0]] || seen[p[1]] {
			return nil, fmt.Errorf("distsim: pair {%d,%d} reuses a matched vertex", p[0], p[1])
		}
		seen[p[0]] = true
		seen[p[1]] = true
	}
	return pairs, nil
}

// replayColorPairs mirrors matching.ColorPairs (pairs hold member indices).
func (st *cliqueState) replayColorPairs(pairs [][2]int, reservedMax int32, rng *rand.Rand) (int, error) {
	if reservedMax >= st.rt.maxColor {
		return 0, fmt.Errorf("distsim: reserved prefix %d leaves no colors", reservedMax)
	}
	spaceLen := int(st.rt.maxColor - reservedMax)
	colored := 0
	const maxRounds = 40
	done := make([]bool, len(pairs))
	tried := make([]int32, len(pairs))
	for r := 0; r < maxRounds && colored < len(pairs); r++ {
		for i := range tried {
			tried[i] = coloring.None
		}
		for i, p := range pairs {
			if done[i] {
				continue
			}
			c := reservedMax + 1 + int32(rng.IntN(spaceLen))
			if st.available(p[0], c) && st.available(p[1], c) {
				tried[i] = c
			}
		}
		for i, p := range pairs {
			c := tried[i]
			if c == coloring.None {
				continue
			}
			conflict := false
			for j, q := range pairs {
				if j >= i || tried[j] != c {
					continue
				}
				if st.adjacentPairs(p, q) {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			st.color[p[0]] = c
			st.color[p[1]] = c
			done[i] = true
			colored++
		}
	}
	return colored, nil
}

func (st *cliqueState) adjacentPairs(p, q [2]int) bool {
	for _, a := range p {
		for _, b := range q {
			if a == b || st.hasEdge(a, b) {
				return true
			}
		}
	}
	return false
}

// --- synchronized color trial --------------------------------------------

// cliqueCounts mirrors coloring.BuildCliquePalette: per-color member usage
// counts plus the ascending free list.
func (st *cliqueState) cliqueCounts() (counts []int32, free []int32) {
	counts = make([]int32, st.rt.maxColor+1)
	for _, c := range st.color {
		if c != coloring.None {
			counts[c]++
		}
	}
	for c := int32(1); c <= st.rt.maxColor; c++ {
		if counts[c] == 0 {
			free = append(free, c)
		}
	}
	return counts, free
}

// replaySCT mirrors core.SCTJob + sct.Run. The clique palette is built
// through the PaletteScratch bitset — Mark each member color, read the free
// list back — the same machinery BuildCliquePalette's counts correspond to.
func (st *cliqueState) replaySCT(task core.SCTTask, seed uint64) (int, error) {
	rng := stageRNG(seed)
	s := st.scratch
	s.Reset(st.rt.maxColor)
	for _, c := range st.color {
		s.Mark(c) // Mark ignores None
	}
	freeAll := s.FreeColors()
	capacity := 0
	for _, c := range freeAll {
		if c > task.ReservedMax {
			capacity++
		}
	}
	var participants []int // member indices
	for j := range st.rt.members {
		if st.color[j] != coloring.None || !task.Inlier[j] || task.Exclude[j] {
			continue
		}
		if len(participants) == capacity {
			break
		}
		participants = append(participants, j)
	}
	if len(participants) == 0 {
		return 0, nil
	}
	// sct.Run rebuilds the palette (unchanged since the capacity pass).
	free := make([]int32, 0, capacity)
	for _, c := range freeAll {
		if c > task.ReservedMax {
			free = append(free, c)
		}
	}
	if len(participants) > len(free) {
		return 0, fmt.Errorf("distsim: %d participants but only %d non-reserved palette colors", len(participants), len(free))
	}
	permSeed := rng.Uint64()
	perm := prng.Permutation(len(participants), permSeed)
	candidate := make([]int32, len(st.rt.members))
	for pos, j := range participants {
		candidate[j] = free[perm[pos]]
	}
	colored := 0
	for _, j := range participants {
		c := candidate[j]
		ok := true
		if st.extHolds(j, c) {
			ok = false
		}
		if ok {
			for w := range st.rt.members {
				if w == j || !st.hasEdge(j, w) {
					continue
				}
				if st.color[w] == c {
					ok = false
					break
				}
				if candidate[w] == c && st.rt.members[w] < st.rt.members[j] {
					ok = false
					break
				}
			}
		}
		if ok {
			st.color[j] = c
			colored++
		}
	}
	return colored, nil
}

// --- put-aside donation --------------------------------------------------

// replayDonate mirrors core.DonateJob + putaside.ColorPutAside.
func (st *cliqueState) replayDonate(task core.DonateTask, seed uint64) (core.DonateAux, error) {
	if len(task.PutAside) == 0 {
		return core.DonateAux{}, nil
	}
	rng := stageRNG(seed)
	if task.BlockSize <= 0 {
		return core.DonateAux{}, fmt.Errorf("distsim: block size %d must be positive", task.BlockSize)
	}
	if task.SampleTries <= 0 {
		return core.DonateAux{}, fmt.Errorf("distsim: sample tries %d must be positive", task.SampleTries)
	}
	aux := core.DonateAux{}
	uncolored := make([]int, 0, len(task.PutAside)) // member indices, put-aside order
	for _, v := range task.PutAside {
		i := st.rt.idxOf[v]
		if st.color[i] != coloring.None {
			return core.DonateAux{}, fmt.Errorf("distsim: put-aside vertex %d already colored", v)
		}
		uncolored = append(uncolored, i)
	}
	counts, free := st.cliqueCounts()
	if len(free) >= task.FreeColorThreshold {
		aux.Free = st.replayTryFreeColors(uncolored, free, task.SampleTries, rng)
		uncolored = st.stillUncolored(uncolored)
	}
	if len(uncolored) > 0 {
		donated, err := st.replayDonateCore(uncolored, counts, free, task, rng)
		if err != nil {
			return core.DonateAux{}, err
		}
		aux.Donated = donated
		uncolored = st.stillUncolored(uncolored)
	}
	if len(uncolored) > 0 {
		aux.Fallback = st.replayFallbackExact(uncolored, rng)
	}
	return aux, nil
}

func (st *cliqueState) stillUncolored(is []int) []int {
	var out []int
	for _, i := range is {
		if st.color[i] == coloring.None {
			out = append(out, i)
		}
	}
	return out
}

// replayTryFreeColors mirrors putaside.tryFreeColors.
func (st *cliqueState) replayTryFreeColors(uncolored []int, free []int32, sampleTries int, rng *rand.Rand) int {
	if len(free) == 0 {
		return 0
	}
	colored := 0
	taken := make(map[int32]bool)
	for _, i := range uncolored {
		used := st.usedScratch(i)
		var chosen int32
		for try := 0; try < sampleTries; try++ {
			c := free[rng.IntN(len(free))]
			if taken[c] {
				continue
			}
			if used.LoadedAvailable(c) {
				chosen = c
				break
			}
		}
		if chosen == coloring.None {
			continue
		}
		taken[chosen] = true
		st.color[i] = chosen
		colored++
	}
	return colored
}

type donateGroupKey struct {
	recol int32
	block int32
}

// replayDonateCore mirrors putaside.donate. counts and free are the
// clique-palette snapshot taken at ColorPutAside entry (donate deliberately
// works from that stale build, as the vertex code does).
func (st *cliqueState) replayDonateCore(uncolored []int, counts []int32, free []int32,
	task core.DonateTask, rng *rand.Rand) (int, error) {
	inPut := make([]bool, len(st.rt.members))
	for _, v := range task.PutAside {
		inPut[st.rt.idxOf[v]] = true
	}
	var qK []int
	for j := range st.rt.members {
		if inPut[j] || st.color[j] == coloring.None {
			continue
		}
		if !task.Inlier[j] || task.Forbidden[j] {
			continue
		}
		if counts[st.color[j]] != 1 {
			continue
		}
		qK = append(qK, j)
	}
	if len(qK) == 0 {
		return 0, nil
	}
	if len(free) == 0 {
		return 0, nil
	}
	groups := make(map[donateGroupKey][]int)
	for _, j := range qK {
		c := free[rng.IntN(len(free))]
		if !st.available(j, c) {
			continue
		}
		block := (st.color[j] - 1) / int32(task.BlockSize)
		key := donateGroupKey{recol: c, block: block}
		groups[key] = append(groups[key], j)
	}
	keys := make([]donateGroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if len(groups[a]) != len(groups[b]) {
			return len(groups[a]) > len(groups[b])
		}
		if a.recol != b.recol {
			return a.recol < b.recol
		}
		return a.block < b.block
	})
	usedRecol := make(map[int32]bool)
	assignment := make(map[int]donateGroupKey)
	gi := 0
	for _, u := range uncolored {
		for gi < len(keys) {
			k := keys[gi]
			gi++
			if usedRecol[k.recol] {
				continue
			}
			usedRecol[k.recol] = true
			assignment[u] = k
			break
		}
	}
	usedDonor := make(map[int]bool)
	donated := 0
	for _, u := range uncolored {
		key, ok := assignment[u]
		if !ok {
			continue
		}
		donors := groups[key]
		used := st.usedScratch(u)
		donor := -1
		for try := 0; try < task.SampleTries && try < 4*len(donors); try++ {
			j := donors[rng.IntN(len(donors))]
			if usedDonor[j] {
				continue
			}
			if used.LoadedAvailable(st.color[j]) || st.onlyBlockerIsDonor(u, j) {
				donor = j
				break
			}
		}
		if donor < 0 {
			continue
		}
		usedDonor[donor] = true
		donatedColor := st.color[donor]
		st.color[donor] = key.recol
		st.color[u] = donatedColor
		if !st.properAt(donor) || !st.properAt(u) {
			st.color[u] = coloring.None
			st.color[donor] = donatedColor
			continue
		}
		donated++
	}
	return donated, nil
}

// onlyBlockerIsDonor mirrors putaside.onlyBlockerIsDonor for member indices.
func (st *cliqueState) onlyBlockerIsDonor(u, v int) bool {
	c := st.color[v]
	if st.extHolds(u, c) {
		return false // some non-member neighbor of u also holds c
	}
	if st.memberNeighborHolds(u, c, v) {
		return false
	}
	return st.hasEdge(u, v)
}

// replayFallbackExact mirrors putaside.fallbackExact: an exact palette
// lookup through the scratch, then a proper-at check.
func (st *cliqueState) replayFallbackExact(uncolored []int, rng *rand.Rand) int {
	colored := 0
	for _, i := range uncolored {
		pal := st.usedScratch(i).FreeColors()
		if len(pal) == 0 {
			continue
		}
		st.color[i] = pal[rng.IntN(len(pal))]
		if !st.properAt(i) {
			st.color[i] = coloring.None
			continue
		}
		colored++
	}
	return colored
}
