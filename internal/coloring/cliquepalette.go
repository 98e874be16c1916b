package coloring

import (
	"fmt"

	"clustercolor/internal/cluster"
)

// CliquePalette is the distributed data structure of Lemma 4.8: for an
// almost-clique K and partial coloring φ it answers, in O(1) H-rounds,
// queries about L_φ(K) = [Δ+1] \ φ(K) (the clique palette) and about
// φ(K) (the used set) — counts over a color range and "give me the i-th
// color in the range". Vertices of cluster graphs cannot learn their own
// palettes, so the algorithm leans on these queries throughout.
//
// The structure is rebuilt after coloring steps; each build is one
// aggregation wave over the clique's BFS tree.
type CliquePalette struct {
	// used[c] = number of members of K colored c (index 0 unused).
	used []int32
	// free is the sorted list of colors in L_φ(K).
	free []int32
	// repeats is Σ_c max(used[c]−1, 0): the colorful-matching size M_K
	// measured on the current coloring.
	repeats int
}

// BuildCliquePalette aggregates the used-color multiset of the members of K
// and charges one O(1)-round query-structure build (Lemma 4.8's
// preprocessing: counts travel as O(log n)-bit partial sums up the clique
// tree, pipelined per bandwidth).
func BuildCliquePalette(cg *cluster.CG, c *Coloring, members []int) *CliquePalette {
	return RebuildCliquePalette(nil, cg, c, members)
}

// RebuildCliquePalette is BuildCliquePalette with caller-owned reuse: when cp
// is non-nil its buffers are recycled, so the per-wave rebuilds of the stage
// loops allocate nothing in steady state. The charged cost is identical.
func RebuildCliquePalette(cp *CliquePalette, cg *cluster.CG, c *Coloring, members []int) *CliquePalette {
	if cp == nil {
		cp = &CliquePalette{}
	}
	cp.reset(c.MaxColor())
	for _, v := range members {
		if col := c.Get(v); col != None {
			cp.used[col]++
		}
	}
	cp.tally(c.MaxColor())
	cg.ChargeHRounds("palette/build", 1, 2*cg.IDBits())
	return cp
}

// reset empties cp for colors 1..maxColor, ready to count member colors
// into used.
func (cp *CliquePalette) reset(maxColor int32) {
	cp.used = zeroed(cp.used, int(maxColor)+1)
	cp.free = cp.free[:0]
	cp.repeats = 0
}

// tally derives the free list and the repeat count from the used counts.
func (cp *CliquePalette) tally(maxColor int32) {
	for col := int32(1); col <= maxColor; col++ {
		switch {
		case cp.used[col] == 0:
			cp.free = append(cp.free, col)
		case cp.used[col] > 1:
			cp.repeats += int(cp.used[col] - 1)
		}
	}
}

// FreeCount returns |L_φ(K)|.
func (cp *CliquePalette) FreeCount() int { return len(cp.free) }

// Repeats returns the number of repeated color uses in K (the measured
// colorful-matching quantity M_K = |K ∩ dom φ| − |φ(K)|).
func (cp *CliquePalette) Repeats() int { return cp.repeats }

// UsedCount returns how many members of K use color col.
func (cp *CliquePalette) UsedCount(col int32) int32 {
	if col < 1 || int(col) >= len(cp.used) {
		return 0
	}
	return cp.used[col]
}

// IsUnique reports whether exactly one member of K uses col.
func (cp *CliquePalette) IsUnique(col int32) bool { return cp.UsedCount(col) == 1 }

// CountFreeInRange implements Lemma 4.8(1) for C(v) = L_φ(K): the number of
// free colors in [a, b].
func (cp *CliquePalette) CountFreeInRange(a, b int32) int {
	n := 0
	for _, col := range cp.free {
		if col >= a && col <= b {
			n++
		}
	}
	return n
}

// NthFreeInRange implements Lemma 4.8(2): the i-th (1-based) free color in
// [a, b]. It returns an error when fewer than i free colors exist there.
func (cp *CliquePalette) NthFreeInRange(i int, a, b int32) (int32, error) {
	if i < 1 {
		return 0, fmt.Errorf("coloring: query index %d < 1", i)
	}
	seen := 0
	for _, col := range cp.free {
		if col >= a && col <= b {
			seen++
			if seen == i {
				return col, nil
			}
		}
	}
	return 0, fmt.Errorf("coloring: only %d free colors in [%d,%d], wanted %d", seen, a, b, i)
}

// NthFree returns the i-th free color over the whole space.
func (cp *CliquePalette) NthFree(i int) (int32, error) {
	if i < 1 || i > len(cp.free) {
		return 0, fmt.Errorf("coloring: free index %d out of [1,%d]", i, len(cp.free))
	}
	return cp.free[i-1], nil
}

// Free returns a copy of the free-color list.
func (cp *CliquePalette) Free() []int32 {
	out := make([]int32, len(cp.free))
	copy(out, cp.free)
	return out
}

// FreeView returns the free-color list without copying. The slice aliases
// the palette and is valid until the next rebuild; callers must not mutate
// it. Hot loops use this instead of Free.
func (cp *CliquePalette) FreeView() []int32 { return cp.free }

// ChargeQuery charges one Lemma 4.8 query round (binary-search style, O(1)
// H-rounds with O(log n)-bit messages) to the cost model. Callers batch one
// charge per parallel query wave.
func ChargeQuery(cg *cluster.CG, phase string) {
	cg.ChargeHRounds(phase, 1, 2*cg.IDBits())
}
