package putaside

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"clustercolor/internal/coloring"
)

// DonateOptions configures ColorPutAside for one cabal.
type DonateOptions struct {
	Phase string
	// PutAside is P_K as member indices of the view: the uncolored members
	// to color.
	PutAside []int
	// Inlier marks the inliers of K, aligned with the view's members
	// (candidate donors must be inliers). Nil admits every member.
	Inlier []bool
	// ForbiddenDonors marks the members that may not donate (members
	// adjacent to foreign put-aside or candidate sets — Lemma 7.2 Property
	// 2), aligned with the view's members. Nil forbids nothing.
	ForbiddenDonors []bool
	// FreeColorThreshold is the scaled ℓ_s: with at least this many free
	// colors in the clique palette, TryFreeColors handles everything.
	FreeColorThreshold int
	// BlockSize is the scaled b: donors are grouped by color blocks of
	// this size so donations compress into O(log n)-bit messages.
	BlockSize int
	// SampleTries is k = Θ(log n / log log n), the donations each
	// recipient may test.
	SampleTries int
}

// DonateResult reports how the put-aside vertices got colored.
type DonateResult struct {
	// ViaFreeColors counts vertices colored from the clique palette
	// (Algorithm 8 Step 2).
	ViaFreeColors int
	// ViaDonation counts vertices colored by the 3-way donation scheme.
	ViaDonation int
	// ViaFallback counts vertices colored by the counted fallback path
	// (exact palette lookup), which the asymptotic analysis makes
	// unnecessary but finite scale occasionally needs.
	ViaFallback int
	// Uncolored counts vertices left for the caller's cleanup loop.
	Uncolored int
	// Recolored counts donors that swapped to a replacement color.
	Recolored int
}

// ColorPutAside implements Algorithm 8 for the cabal of v. The caller runs
// it per cabal; cross-cabal safety comes from ComputePutAside's Property 2
// and from donors never being adjacent to foreign put-aside/donor sets.
func ColorPutAside(v *coloring.CliqueView, opts DonateOptions, rng *rand.Rand) (*DonateResult, error) {
	if opts.BlockSize <= 0 {
		return nil, fmt.Errorf("putaside: block size %d must be positive", opts.BlockSize)
	}
	if opts.SampleTries <= 0 {
		return nil, fmt.Errorf("putaside: sample tries %d must be positive", opts.SampleTries)
	}
	res := &DonateResult{}
	uncolored := make([]int, 0, len(opts.PutAside))
	for _, i := range opts.PutAside {
		if v.Colors[i] != coloring.None {
			return nil, fmt.Errorf("putaside: put-aside vertex %d already colored", v.Members[i])
		}
		uncolored = append(uncolored, i)
	}
	if len(uncolored) == 0 {
		return res, nil
	}
	cp := v.Palette()
	if cp.FreeCount() >= opts.FreeColorThreshold {
		res.ViaFreeColors = tryFreeColors(v, cp, uncolored, opts, rng)
		uncolored = stillUncolored(v, uncolored)
	}
	if len(uncolored) > 0 {
		res.ViaDonation = donate(v, cp, uncolored, opts, rng)
		res.Recolored = res.ViaDonation
		uncolored = stillUncolored(v, uncolored)
	}
	if len(uncolored) > 0 {
		// Counted fallback: exact palette lookup, charged as the expensive
		// Ω(Δ/log n)-round primitive it is (Figure 2's lower bound).
		res.ViaFallback = fallbackExact(v, uncolored, opts.Phase, rng)
		uncolored = stillUncolored(v, uncolored)
	}
	res.Uncolored = len(uncolored)
	return res, nil
}

func stillUncolored(v *coloring.CliqueView, is []int) []int {
	var out []int
	for _, i := range is {
		if v.Colors[i] == coloring.None {
			out = append(out, i)
		}
	}
	return out
}

// tryFreeColors is Algorithm 8 Step 2: each uncolored vertex samples
// SampleTries indices into the clique palette (hashes keep messages at
// O(log n) bits, Lemma D.9), keeps one that conflicts with neither external
// neighbors nor other put-aside vertices' picks.
func tryFreeColors(v *coloring.CliqueView, cp *coloring.CliquePalette,
	uncolored []int, opts DonateOptions, rng *rand.Rand) int {
	free := cp.FreeView()
	if len(free) == 0 {
		return 0
	}
	// Hash agreement + sampled-query round + response round.
	v.Charge(opts.Phase, "/free-hash", 1, 2*v.IDBits())
	v.Charge(opts.Phase, "/free-query", 1, 2*v.IDBits())
	colored := 0
	taken := make(map[int32]bool)
	for _, i := range uncolored {
		// One neighborhood load answers every sampled-color test in O(1).
		used := v.Used(i)
		var chosen int32
		for try := 0; try < opts.SampleTries; try++ {
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
		v.Colors[i] = chosen
		colored++
	}
	return colored
}

// donate runs FindCandidateDonors + FindSafeDonors + DonateColors
// (Algorithms 9 and 10 plus Step 6 of Algorithm 8) and returns the number
// of recipients colored, each by one donor's swap.
func donate(v *coloring.CliqueView, cp *coloring.CliquePalette,
	uncolored []int, opts DonateOptions, rng *rand.Rand) int {
	inPutAside := make([]bool, len(v.Members))
	for _, i := range opts.PutAside {
		inPutAside[i] = true
	}
	// --- FindCandidateDonors (Algorithm 9 / Lemma 7.2) ---
	// Q_K: colored inliers with a unique color in K, not adjacent to
	// foreign put-aside/candidate vertices and not in P_K.
	v.Charge(opts.Phase, "/candidates", 2, 2*v.IDBits())
	var qK []int
	for i, c := range v.Colors {
		if inPutAside[i] || c == coloring.None {
			continue
		}
		if opts.Inlier != nil && !opts.Inlier[i] {
			continue
		}
		if opts.ForbiddenDonors != nil && opts.ForbiddenDonors[i] {
			continue
		}
		if !cp.IsUnique(c) {
			continue
		}
		qK = append(qK, i)
	}
	if len(qK) == 0 {
		return 0
	}
	// --- FindSafeDonors (Algorithm 10 / Lemma 7.3) ---
	// Each candidate samples a replacement color from the clique palette,
	// keeps it only if available; donors are then grouped by (replacement
	// color, block of own color). Each recipient gets a distinct
	// replacement color with a non-empty donor group.
	free := cp.FreeView()
	if len(free) == 0 {
		return 0
	}
	v.Charge(opts.Phase, "/safe-sample", 1, 2*v.IDBits())
	groups := make(map[groupKey][]int)
	for _, i := range qK {
		c := free[rng.IntN(len(free))]
		if !v.Available(i, c) {
			continue // Step 1 of Algorithm 10: drop if c ∉ L(v)
		}
		block := (v.Colors[i] - 1) / int32(opts.BlockSize)
		key := groupKey{recol: c, block: block}
		groups[key] = append(groups[key], i)
	}
	// Fingerprint-style group-size estimation + block selection: O(1)
	// rounds (Steps 2–4 of Algorithm 10).
	v.Charge(opts.Phase, "/safe-select", 3, 2*v.IDBits())
	// Deterministic order over groups (largest first) so each recipient
	// takes the best remaining replacement color.
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	// Sort: larger groups first, ties by color then block for determinism.
	sortGroupKeys(keys, groups)
	usedRecol := make(map[int32]bool)
	// assigned[a] indexes the group of recipient uncolored[a] in keys (-1:
	// none left).
	assigned := make([]int, len(uncolored))
	gi := 0
	for a := range uncolored {
		assigned[a] = -1
		for gi < len(keys) {
			k := keys[gi]
			gi++
			if usedRecol[k.recol] {
				continue
			}
			usedRecol[k.recol] = true
			assigned[a] = gi - 1
			break
		}
	}
	// --- DonateColors (Step 6 of Algorithm 8) ---
	// Recipient u samples donors from its group; a donation works when the
	// donor's color is unused by u's external neighbors. Donations are
	// k·log(b)-bit messages (block index + offsets).
	v.Charge(opts.Phase, "/donate", 2, 2*v.IDBits())
	usedDonor := make([]bool, len(v.Members))
	donated := 0
	for a, u := range uncolored {
		if assigned[a] < 0 {
			continue
		}
		key := keys[assigned[a]]
		donors := groups[key]
		// One load of u's neighborhood answers every donor test in O(1).
		used := v.Used(u)
		donor := -1
		for try := 0; try < opts.SampleTries && try < 4*len(donors); try++ {
			d := donors[rng.IntN(len(donors))]
			if usedDonor[d] {
				continue
			}
			// The donated color must be free for u: not used by u's
			// (external) neighbors. In-clique uniqueness holds because
			// candidates hold unique colors.
			if used.LoadedAvailable(v.Colors[d]) || onlyBlockerIsDonor(v, u, d) {
				donor = d
				break
			}
		}
		if donor < 0 {
			continue
		}
		usedDonor[donor] = true
		donatedColor := v.Colors[donor]
		// Swap: donor takes its replacement, u takes the donated color.
		v.Colors[donor] = key.recol
		v.Colors[u] = donatedColor
		// Post-swap safety check (both vertices proper).
		if !properAt(v, donor) || !properAt(v, u) {
			// Undo and skip; the fallback path will handle u.
			v.Colors[u] = coloring.None
			v.Colors[donor] = donatedColor
			continue
		}
		donated++
	}
	return donated
}

// onlyBlockerIsDonor reports whether the single neighbor of member u
// holding member d's color is d itself (then the swap frees the color for
// u).
func onlyBlockerIsDonor(v *coloring.CliqueView, u, d int) bool {
	c := v.Colors[d]
	return !v.ExtHolds(u, c) && !v.NeighborHolds(u, c, d) && v.HasEdge(u, d)
}

// properAt reports whether no neighbor of member i shares its color.
func properAt(v *coloring.CliqueView, i int) bool {
	c := v.Colors[i]
	return c == coloring.None || v.Available(i, c)
}

// fallbackExact colors remaining vertices by exact palette lookup — the
// primitive Figure 2 shows costs Ω(Δ/log n) rounds, charged as such.
func fallbackExact(v *coloring.CliqueView, uncolored []int, phase string, rng *rand.Rand) int {
	if v.CG != nil {
		bw := v.CG.Cost().Bandwidth()
		hops := max((int(v.MaxColor)-1+bw-1)/bw, 1)
		v.Charge(phase, "/fallback", hops, bw)
	}
	colored := 0
	for _, i := range uncolored {
		pal := v.Used(i).FreeColors()
		if len(pal) == 0 {
			continue
		}
		v.Colors[i] = pal[rng.IntN(len(pal))]
		if !properAt(v, i) {
			v.Colors[i] = coloring.None
			continue
		}
		colored++
	}
	return colored
}

// groupKey identifies a donor group: the shared replacement color c_i and
// the block B_j the donors' own colors come from (Lemma 7.3 Properties 1, 3).
type groupKey struct {
	recol int32
	block int32
}

// sortGroupKeys orders donor groups largest-first with deterministic
// tie-breaking, so recipients claim the best-stocked replacement colors.
func sortGroupKeys(keys []groupKey, groups map[groupKey][]int) {
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
}
