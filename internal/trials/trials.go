// Package trials implements the random color-trial engines every stage of
// the algorithm is built from:
//
//   - TryColorSession — Algorithm 17 / Lemma D.3: activated vertices try one
//     uniform color from their color space; lower-ID neighbors win ties.
//     Each round reduces uncolored degrees by a constant factor when
//     vertices have slack. TryColorRound and TryColorLoop run one session.
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
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"clustercolor/internal/cluster"
	"clustercolor/internal/coloring"
	"clustercolor/internal/parwork"
	"clustercolor/internal/prng"
)

// TryColorOptions configures the rounds of a TryColor session.
type TryColorOptions struct {
	// Phase labels the cost-model entries.
	Phase string
	// Active restricts the participating set S (nil = all uncolored).
	// TryColorRound and TryColorLoop start their session from it, and a
	// session asks it once per uncolored vertex when it starts, never again,
	// so it must not depend on the coloring. TryColorSession.Round does not
	// read it.
	Active func(v int) bool
	// Space returns C(v), the candidate colors of v, all inside [1, Δ+1]. A
	// nil or empty space skips the vertex this round.
	Space func(v int) []int32
	// Activation is the self-activation probability p (Algorithm 17 uses
	// γ/4). Values outside (0,1] are coerced to 1.
	Activation float64
}

// TryColorSession runs TryColor rounds (Algorithm 17) on one coloring. It
// reads the coloring once, when it starts, and from then on keeps its own
// view of it: the ascending frontier of active uncolored vertices, and one
// state word per vertex — its color if colored, −c while it tries c, 0
// otherwise. The word is an int8 when Δ+1 ≤ 127 and an int32 otherwise, so
// on the low-degree path every vertex's state fits in a few hundred
// kilobytes of cache beside the graph rows the conflict check streams.
//
// A round draws over the frontier only, in ascending order, so it makes the
// rng calls a scan of every vertex would make: one Float64 per active
// uncolored vertex, then one IntN per activated vertex with a non-empty
// space. Between rounds the session owns the coloring: only the session may
// write it. After any error the session is spent, and every later Round
// returns that error.
type TryColorSession struct {
	run trialRunner
	err error
}

// trialRunner is a session at one state width.
type trialRunner interface {
	round(opts TryColorOptions, p float64, rng *rand.Rand) (int, error)
	left() int
	uncolored() []int32
}

// NewTryColorSession starts a session on col. It asks active (nil = every
// vertex) once for each uncolored vertex.
func NewTryColorSession(cg *cluster.CG, col *coloring.Coloring, active func(v int) bool) *TryColorSession {
	if col.MaxColor() <= math.MaxInt8 {
		return &TryColorSession{run: newTrialState[int8](cg, col, active)}
	}
	return &TryColorSession{run: newTrialState[int32](cg, col, active)}
}

// Round runs one round of Algorithm 17 and returns the number of vertices
// newly colored. An activated vertex samples a uniform color from its space
// and adopts it iff no colored neighbor holds it and no activated neighbor
// of smaller index tries it. A space color outside [1, Δ+1] is an error
// before anything is adopted.
func (s *TryColorSession) Round(opts TryColorOptions, rng *rand.Rand) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if opts.Space == nil {
		s.err = fmt.Errorf("trials: nil color space")
		return 0, s.err
	}
	p := opts.Activation
	if p <= 0 || p > 1 {
		p = 1
	}
	colored, err := s.run.round(opts, p, rng)
	if err != nil {
		s.err = err
		return 0, err
	}
	return colored, nil
}

// Left returns the number of active vertices still uncolored.
func (s *TryColorSession) Left() int { return s.run.left() }

// Uncolored returns the active vertices still uncolored, ascending. The
// slice belongs to the session and is valid until its next round.
func (s *TryColorSession) Uncolored() []int32 { return s.run.uncolored() }

// trialState is a session whose state words are S.
type trialState[S int8 | int32] struct {
	cg  *cluster.CG
	col *coloring.Coloring
	// state is every vertex's color if colored, −c if it tried c in the
	// last round and has not been drawn for since, 0 otherwise.
	state []S
	// frontier lists the active vertices uncolored before the last round,
	// ascending; the next draw drops the ones that round colored.
	frontier []int32
	// tried lists the vertices that tried in the last round, ascending; the
	// decision pass overwrites a loser's entry with −1.
	tried []int32
	// active counts the frontier minus the last round's winners.
	active int
}

func newTrialState[S int8 | int32](cg *cluster.CG, col *coloring.Coloring, active func(v int) bool) *trialState[S] {
	n := col.N()
	t := &trialState[S]{cg: cg, col: col, state: make([]S, n), frontier: make([]int32, 0, n)}
	for v := 0; v < n; v++ {
		c := col.Get(v)
		t.state[v] = S(c)
		if c == coloring.None && (active == nil || active(v)) {
			t.frontier = append(t.frontier, int32(v))
		}
	}
	t.tried = make([]int32, 0, len(t.frontier))
	t.active = len(t.frontier)
	return t
}

func (t *trialState[S]) left() int { return t.active }

func (t *trialState[S]) uncolored() []int32 {
	state := t.state
	t.frontier = slices.DeleteFunc(t.frontier, func(v int32) bool { return state[v] > 0 })
	return t.frontier
}

func (t *trialState[S]) round(opts TryColorOptions, p float64, rng *rand.Rand) (int, error) {
	state, frontier, tried := t.state, t.frontier, t.tried[:0]
	maxColor := t.col.MaxColor()
	// Draw in ascending vertex order, so the rng stream is consumed exactly
	// as a serial loop over the vertices would consume it. The walk drops
	// the last round's winners from the frontier and clears its losers'
	// tries.
	k := 0
	for _, v := range frontier {
		if state[v] > 0 {
			continue
		}
		frontier[k] = v
		k++
		state[v] = 0
		if rng.Float64() >= p {
			continue
		}
		space := opts.Space(int(v))
		if len(space) == 0 {
			continue
		}
		c := space[rng.IntN(len(space))]
		if c < 1 || c > maxColor {
			return 0, fmt.Errorf("trials: vertex %d drew color %d outside [1,%d]", v, c, maxColor)
		}
		state[v] = -S(c)
		tried = append(tried, v)
	}
	t.frontier, t.tried = frontier[:k], tried
	// One H-round to announce the tried color (O(log Δ) bits) and one to
	// echo conflicts back.
	colorBits := bits.Len(uint(maxColor)) + 1
	t.cg.ChargeHRounds(opts.Phase+"/announce", 1, colorBits)
	t.cg.ChargeHRounds(opts.Phase+"/respond", 1, colorBits)
	// Decide in parallel over the vertices that tried, apply sequentially in
	// vertex order (the pipeline's write-apply order contract). A vertex's
	// decision depends only on the pre-round state: a lower-ID neighbor
	// newly adopting c necessarily tried c, so the −c check subsumes every
	// same-round write the serial loop would have observed — the parallel
	// decisions are byte-identical to the serial ones.
	h := t.cg.H
	if err := parwork.ForRange(len(tried), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v := tried[i]
			c := -state[v]
			for _, w := range h.Neighbors(int(v)) {
				if s := state[w]; s == c || (s == -c && w < v) {
					tried[i] = -1
					break
				}
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	colored := 0
	for _, v := range tried {
		if v < 0 {
			continue
		}
		state[v] = -state[v]
		if err := t.col.Set(int(v), int32(state[v])); err != nil {
			return 0, fmt.Errorf("trials: adopting color: %w", err)
		}
		colored++
	}
	t.active = k - colored
	return colored, nil
}

// TryColorRound runs one round of Algorithm 17 on a session of its own and
// returns the number of vertices newly colored.
func TryColorRound(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, rng *rand.Rand) (int, error) {
	return NewTryColorSession(cg, col, opts.Active).Round(opts, rng)
}

// TryColorLoop runs up to maxRounds TryColor rounds on one session and stops
// early when the active set is fully colored. It returns the number of
// vertices still uncolored in the active set.
func TryColorLoop(cg *cluster.CG, col *coloring.Coloring, opts TryColorOptions, maxRounds int, rng *rand.Rand) (int, error) {
	s := NewTryColorSession(cg, col, opts.Active)
	for r := 0; r < maxRounds && s.Left() > 0; r++ {
		if _, err := s.Round(opts, rng); err != nil {
			return 0, err
		}
	}
	return s.Left(), nil
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
	// TryColorSession.Round).
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
