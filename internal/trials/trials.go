// Package trials implements the random color-trial engines every stage of
// the algorithm is built from:
//
//   - TryColorRound — Algorithm 17 / Lemma D.3: activated vertices try one
//     uniform color from their color space; lower-ID neighbors win ties.
//     Each round reduces uncolored degrees by a constant factor when
//     vertices have slack.
//
//   - MultiColorTrial — Algorithm 16 / Lemmas D.1–D.2: vertices with slack
//     try exponentially growing pseudorandom color sets (sampled from a
//     shared representative-set family so a set costs O(log n) bits to
//     describe), finishing in O(log* n) phases.
//
// Color spaces C(v) are supplied by callers as explicit candidate lists;
// the engines only ever announce O(log n)-bit descriptions per round, which
// is what the cost model charges.
package trials

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/parwork"
	"clustercolor/internal/prng"
)

// TryColorOptions configures one TryColorRound.
type TryColorOptions struct {
	// Phase labels the cost-model entries.
	Phase string
	// Active restricts the participating set S (nil = all uncolored). A
	// round asks it once per uncolored vertex, before any adoption, and
	// counts the vertices it leaves from those answers, so it must not
	// depend on the coloring.
	Active func(v int) bool
	// Space returns C(v), the candidate colors of v, all inside [1, Δ+1]. A
	// nil or empty space skips the vertex this round.
	Space func(v int) []int32
	// Activation is the self-activation probability p (Algorithm 17 uses
	// γ/4). Values outside (0,1] are coerced to 1.
	Activation float64
}

// TryColorScratch is the reusable per-round state of TryColorRoundWith.
// Loops that run many rounds (TryColorLoop, the low-degree shatter loop)
// hold one scratch so its two vertex-sized arrays are allocated once. The
// zero value is ready to use.
type TryColorScratch struct {
	// state packs one round's view of every vertex into one word: its color
	// if colored, −c if it tries c this round, 0 otherwise.
	state []int32
	// tried lists the vertices that tried, ascending; the decide pass
	// overwrites a loser's entry with −1.
	tried []int32
}

// TryColorRound runs one round of Algorithm 17 and returns the number of
// vertices newly colored. Semantics: an activated vertex samples a uniform
// color from its space and adopts it iff no colored neighbor holds it and no
// activated neighbor of smaller index tries it.
func TryColorRound(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, rng *rand.Rand) (int, error) {
	colored, _, err := TryColorRoundWith(cg, col, opts, rng, &TryColorScratch{})
	return colored, err
}

// TryColorRoundWith is TryColorRound with caller-owned scratch. Besides the
// number of vertices it colored, it returns how many active vertices it
// left uncolored, so a loop over rounds needs no rescan of the coloring.
// A space color outside [1, Δ+1] is an error before anything is adopted.
func TryColorRoundWith(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, rng *rand.Rand, sc *TryColorScratch) (colored, left int, err error) {
	if opts.Space == nil {
		return 0, 0, fmt.Errorf("trials: nil color space")
	}
	p := opts.Activation
	if p <= 0 || p > 1 {
		p = 1
	}
	// Draw in ascending vertex order, so the rng stream is consumed exactly
	// as a serial loop over the vertices would consume it.
	n := cg.H.N()
	if cap(sc.state) < n {
		sc.state = make([]int32, n)
		sc.tried = make([]int32, 0, n)
	}
	state, tried := sc.state[:n], sc.tried[:0]
	maxColor := col.MaxColor()
	active := 0
	for v := 0; v < n; v++ {
		state[v] = col.Get(v)
		if state[v] != coloring.None || (opts.Active != nil && !opts.Active(v)) {
			continue
		}
		active++
		if rng.Float64() >= p {
			continue
		}
		space := opts.Space(v)
		if len(space) == 0 {
			continue
		}
		c := space[rng.IntN(len(space))]
		if c < 1 || c > maxColor {
			return 0, 0, fmt.Errorf("trials: vertex %d drew color %d outside [1,%d]", v, c, maxColor)
		}
		state[v] = -c
		tried = append(tried, int32(v))
	}
	// One H-round to announce the tried color (O(log Δ) bits) and one to
	// echo conflicts back.
	colorBits := bits.Len(uint(maxColor)) + 1
	cg.ChargeHRounds(opts.Phase+"/announce", 1, colorBits)
	cg.ChargeHRounds(opts.Phase+"/respond", 1, colorBits)
	// Decide in parallel over the vertices that tried, apply sequentially in
	// vertex order (the pipeline's write-apply order contract). A vertex's
	// decision depends only on the pre-round state: a lower-ID neighbor
	// newly adopting c necessarily tried c, so the −c check subsumes every
	// same-round write the serial loop would have observed — the parallel
	// decisions are byte-identical to the serial ones.
	if err := parwork.ForRange(len(tried), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v := tried[i]
			c := -state[v]
			for _, w := range cg.H.Neighbors(int(v)) {
				if s := state[w]; s == c || (s == -c && w < v) {
					tried[i] = -1
					break
				}
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	for _, v := range tried {
		if v < 0 {
			continue
		}
		if err := col.Set(int(v), -state[v]); err != nil {
			return colored, 0, fmt.Errorf("trials: adopting color: %w", err)
		}
		colored++
	}
	return colored, active - colored, nil
}

// TryColorLoop runs up to maxRounds TryColorRounds and stops early when the
// active set is fully colored. It returns the number of vertices still
// uncolored in the active set.
func TryColorLoop(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, maxRounds int, rng *rand.Rand) (int, error) {
	var sc TryColorScratch
	left := remainingActive(cg, col, opts.Active)
	for r := 0; r < maxRounds && left > 0; r++ {
		var err error
		if _, left, err = TryColorRoundWith(cg, col, opts, rng, &sc); err != nil {
			return 0, err
		}
	}
	return left, nil
}

func remainingActive(cg *cluster.CG, col *coloring.Coloring, active func(v int) bool) int {
	n := 0
	for v := 0; v < cg.H.N(); v++ {
		if col.IsColored(v) {
			continue
		}
		if active != nil && !active(v) {
			continue
		}
		n++
	}
	return n
}

// MCTOptions configures MultiColorTrial.
type MCTOptions struct {
	Phase string
	// Active restricts the participating set (nil = all uncolored).
	Active func(v int) bool
	// Space returns C(v).
	Space func(v int) []int32
	// InitialTries is x in the first phase (default 1).
	InitialTries int
	// MaxPhases bounds the loop (default 4 + log₂ of the largest space,
	// generous for the O(log* n) guarantee).
	MaxPhases int
	// Seed derives the shared representative-set families; all vertices
	// hold it, so describing a member costs only its index.
	Seed uint64
}

// MultiColorTrial runs Algorithm 16 iterated per Lemma D.1 and returns the
// number of active vertices left uncolored (0 on full success).
func MultiColorTrial(cg *cluster.CG, col *coloring.Coloring, opts MCTOptions, rng *rand.Rand) (int, error) {
	if opts.Space == nil {
		return 0, fmt.Errorf("trials: nil color space")
	}
	x := opts.InitialTries
	if x < 1 {
		x = 1
	}
	maxPhases := opts.MaxPhases
	if maxPhases <= 0 {
		maxSpace := 2
		for v := 0; v < cg.H.N(); v++ {
			if col.IsColored(v) {
				continue
			}
			if opts.Active != nil && !opts.Active(v) {
				continue
			}
			if s := len(opts.Space(v)); s > maxSpace {
				maxSpace = s
			}
		}
		maxPhases = 4 + bits.Len(uint(maxSpace))
	}
	// Per-call scratch shared by all phases: tried sets live in one arena
	// addressed by per-vertex spans, families are cached per space size, and
	// member materialization reuses one buffer — no per-vertex allocation.
	ms := &mctScratch{
		spans:  make([][2]int32, cg.H.N()),
		fams:   make(map[int]*prng.RepFamily),
		member: prng.NewMemberScratch(),
	}
	for phase := 0; phase < maxPhases; phase++ {
		if remainingActive(cg, col, opts.Active) == 0 {
			return 0, nil
		}
		if err := mctPhase(cg, col, opts, x, phase, ms, rng); err != nil {
			return 0, err
		}
		// Exponential growth of the number of tried colors.
		x *= 2
	}
	return remainingActive(cg, col, opts.Active), nil
}

// mctScratch is the reusable state of one MultiColorTrial call.
type mctScratch struct {
	// spans[v] is the [lo, hi) range of v's tried set inside arena.
	spans [][2]int32
	// arena holds every tried color of the current phase back to back.
	arena []int32
	// fams caches the representative family per space size for the phase.
	fams map[int]*prng.RepFamily
	// memberBuf and member materialize family members without allocating.
	memberBuf []int
	member    *prng.MemberScratch
	// idxBuf holds the member indices accepted for the current vertex, the
	// dedup set of the sampling loop.
	idxBuf []int
	// win buffers the parallel phase decisions before the sequential apply.
	win []int32
}

// tried returns v's tried set for the current phase.
func (ms *mctScratch) tried(v int) []int32 {
	sp := ms.spans[v]
	return ms.arena[sp[0]:sp[1]]
}

// mctPhase is one TryPseudorandomColors(x) step: sample a representative
// set over C(v), draw x colors from it, adopt any color unused and untried
// in the neighborhood.
func mctPhase(cg *cluster.CG, col *coloring.Coloring, opts MCTOptions, x, phase int, ms *mctScratch, rng *rand.Rand) error {
	n := cg.H.N()
	ms.arena = ms.arena[:0]
	for i := range ms.spans {
		ms.spans[i] = [2]int32{}
	}
	clear(ms.fams)
	maxDescBits := 1
	for v := 0; v < n; v++ {
		if col.IsColored(v) {
			continue
		}
		if opts.Active != nil && !opts.Active(v) {
			continue
		}
		space := opts.Space(v)
		if len(space) == 0 {
			continue
		}
		// Representative-set sampling (Algorithm 16 Steps 1–2): vertex v
		// draws a member Y(v) of the shared family over C(v), then x
		// uniform colors from Y(v). Vertices with equal space sizes share
		// one family (same parameters and seed), so it is cached.
		fam := ms.fams[len(space)]
		if fam == nil {
			var err error
			fam, err = prng.RepFamilyFor(len(space), 0.5, 0.25, opts.Seed+uint64(phase)*1315423911+uint64(len(space)))
			if err != nil {
				return fmt.Errorf("trials: representative family: %w", err)
			}
			ms.fams[len(space)] = fam
		}
		member, err := fam.AppendMember(ms.memberBuf[:0], rng.IntN(fam.Count()), ms.member)
		if err != nil {
			return fmt.Errorf("trials: family member: %w", err)
		}
		ms.memberBuf = member
		k := x
		if k > len(member) {
			k = len(member)
		}
		lo := int32(len(ms.arena))
		ms.idxBuf = ms.idxBuf[:0]
		for len(ms.arena)-int(lo) < k {
			idx := member[rng.IntN(len(member))]
			// Sampling with replacement is fine for the analysis; dedup by
			// member index (a scan of the small accepted set) only to keep
			// the announced set minimal. Index-based dedup also guarantees
			// termination when a caller's space repeats a color: once every
			// member index is accepted, the next sample must be a dup.
			dup := false
			for _, j := range ms.idxBuf {
				if j == idx {
					dup = true
					break
				}
			}
			if dup {
				if len(ms.idxBuf) == len(member) {
					break
				}
				continue
			}
			ms.idxBuf = append(ms.idxBuf, idx)
			ms.arena = append(ms.arena, space[idx])
		}
		ms.spans[v] = [2]int32{lo, int32(len(ms.arena))}
		// Description: family index + x offsets within the member.
		desc := fam.IndexBits() + k*bits.Len(uint(fam.SetSize()))
		if desc > maxDescBits {
			maxDescBits = desc
		}
	}
	cg.ChargeHRounds(opts.Phase+"/announce", 1, maxDescBits)
	cg.ChargeHRounds(opts.Phase+"/respond", 1, maxDescBits)
	// Decide in parallel, apply sequentially: a lower-ID neighbor can only
	// adopt colors from its own tried set, which adoptable already rejects,
	// so decisions match the serial loop exactly (same argument as
	// TryColorRoundWith).
	if cap(ms.win) < n {
		ms.win = make([]int32, n)
	}
	ms.win = ms.win[:n]
	win := ms.win
	if err := parwork.ForRange(n, func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			win[v] = coloring.None
			for _, c := range ms.tried(v) {
				if adoptable(cg, col, ms, v, c) {
					win[v] = c
					break
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if win[v] == coloring.None {
			continue
		}
		if err := col.Set(v, win[v]); err != nil {
			return fmt.Errorf("trials: adopting color: %w", err)
		}
	}
	return nil
}

// adoptable reports whether color c is neither held by a neighbor of v nor
// tried this phase by a neighbor of smaller index (Algorithm 16 Step 3,
// with the TryColor priority rule added: among same-phase triers of a color
// only the smallest index may adopt it, which guarantees global progress
// even when tried sets saturate the color space).
func adoptable(cg *cluster.CG, col *coloring.Coloring, ms *mctScratch, v int, c int32) bool {
	for _, u := range cg.H.Neighbors(v) {
		w := int(u)
		if col.Get(w) == c {
			return false
		}
		if w < v {
			for _, tc := range ms.tried(w) {
				if tc == c {
					return false
				}
			}
		}
	}
	return true
}

// RangeSpace returns the color space [lo, hi] as a slice (inclusive).
func RangeSpace(lo, hi int32) []int32 {
	if hi < lo {
		return nil
	}
	out := make([]int32, 0, hi-lo+1)
	for c := lo; c <= hi; c++ {
		out = append(out, c)
	}
	return out
}
