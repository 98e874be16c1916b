package coloring

import (
	"math/bits"
	"sync"

	"clustercolor/internal/graph"
)

// PaletteScratch is caller-owned reusable scratch for palette queries: a
// flat []uint64 bitset over the color space plus a reusable output buffer.
// One scratch replaces the per-call []bool / map allocations of the
// package-level helpers, so steady-state palette work in the stage loops
// does zero per-vertex heap allocation.
//
// Ownership contract: a scratch belongs to exactly one goroutine at a time.
// Load, Palette, PaletteSize, Slack and ReuseSlack overwrite the scratch;
// slices returned by Palette alias the scratch's buffer and are valid only
// until the next call on the same scratch. Callers that retain a palette
// copy it (or use AppendPalette with their own destination). Parallel stage
// loops give each worker its own scratch.
type PaletteScratch struct {
	used      []uint64 // bitset over colors 0..loadedMax (index 0 unused)
	out       []int32  // reusable palette output buffer
	loadedMax int32    // MaxColor of the coloring at the last Load
}

// NewPaletteScratch returns an empty scratch; buffers grow on first use.
func NewPaletteScratch() *PaletteScratch { return &PaletteScratch{} }

// reset sizes the bitset for colors 1..maxColor and clears it.
func (s *PaletteScratch) reset(maxColor int32) {
	words := int(maxColor)/64 + 1
	if cap(s.used) < words {
		s.used = make([]uint64, words)
	} else {
		s.used = s.used[:words]
		for i := range s.used {
			s.used[i] = 0
		}
	}
	s.loadedMax = maxColor
}

// Load populates the scratch with φ(N(v)), the colors used in v's
// neighborhood, and returns s for chaining. After a Load, Has and Available
// answer membership queries in O(1).
func (s *PaletteScratch) Load(g *graph.Graph, c *Coloring, v int) *PaletteScratch {
	s.reset(c.MaxColor())
	for _, u := range g.Neighbors(v) {
		if col := c.colors[u]; col != None {
			s.used[col>>6] |= 1 << uint(col&63)
		}
	}
	return s
}

// Has reports whether col was used by a neighbor at the last Load.
func (s *PaletteScratch) Has(col int32) bool {
	if col < 1 || col > s.loadedMax {
		return false
	}
	return s.used[col>>6]&(1<<uint(col&63)) != 0
}

// LoadedAvailable reports whether col ∈ L_φ(v) for the vertex of the last
// Load: a legal color not used by any neighbor.
func (s *PaletteScratch) LoadedAvailable(col int32) bool {
	return col >= 1 && col <= s.loadedMax && !s.Has(col)
}

// usedCount returns |φ(N(v))| for the last Load.
func (s *PaletteScratch) usedCount() int {
	n := 0
	for _, w := range s.used {
		n += bits.OnesCount64(w)
	}
	return n
}

// Palette returns L_φ(v) = [Δ+1] \ φ(N(v)) sorted ascending. The returned
// slice aliases the scratch and is valid until the next call on s.
func (s *PaletteScratch) Palette(g *graph.Graph, c *Coloring, v int) []int32 {
	s.Load(g, c, v)
	s.out = appendFree(s.out[:0], s.used, s.loadedMax)
	return s.out
}

// AppendPalette appends L_φ(v) to dst and returns it; dst may be nil (the
// result is then exactly sized). Unlike Palette, the result is owned by the
// caller.
func (s *PaletteScratch) AppendPalette(dst []int32, g *graph.Graph, c *Coloring, v int) []int32 {
	s.Load(g, c, v)
	if need := int(s.loadedMax) - s.usedCount(); cap(dst)-len(dst) < need {
		grown := make([]int32, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return appendFree(dst, s.used, s.loadedMax)
}

// appendFree appends the colors of [1, maxColor] absent from the bitset.
func appendFree(dst []int32, used []uint64, maxColor int32) []int32 {
	for col := int32(1); col <= maxColor; col++ {
		if used[col>>6]&(1<<uint(col&63)) == 0 {
			dst = append(dst, col)
		}
	}
	return dst
}

// FreeColors returns the colors of [1, maxColor] not marked used, ascending:
// the palette of the vertex or clique member last loaded. The slice aliases
// the scratch and is valid until its next use — the same contract (and the
// same order) as Palette.
func (s *PaletteScratch) FreeColors() []int32 {
	s.out = appendFree(s.out[:0], s.used, s.loadedMax)
	return s.out
}

// PaletteSize returns |L_φ(v)| without materializing the palette and without
// allocating: MaxColor minus the popcount of the used-color bitset.
func (s *PaletteScratch) PaletteSize(g *graph.Graph, c *Coloring, v int) int {
	s.Load(g, c, v)
	return int(c.MaxColor()) - s.usedCount()
}

// Slack returns s_φ(v) = |L_φ(v)| − deg_φ(v; active) with one neighborhood
// pass for the palette and one for the uncolored degree.
func (s *PaletteScratch) Slack(g *graph.Graph, c *Coloring, v int, active func(int) bool) int {
	return s.PaletteSize(g, c, v) - UncoloredDegree(g, c, v, active)
}

// ReuseSlack returns |N(v) ∩ dom φ| − |φ(N(v))| (Section 4.1's reuse slack)
// allocation-free.
func (s *PaletteScratch) ReuseSlack(g *graph.Graph, c *Coloring, v int) int {
	s.reset(c.MaxColor())
	colored := 0
	for _, u := range g.Neighbors(v) {
		if col := c.colors[u]; col != None {
			colored++
			s.used[col>>6] |= 1 << uint(col&63)
		}
	}
	return colored - s.usedCount()
}

// scratchPool backs the package-level convenience wrappers so legacy callers
// keep their signatures yet stop allocating per call in steady state.
var scratchPool = sync.Pool{New: func() any { return NewPaletteScratch() }}

func pooledScratch() *PaletteScratch   { return scratchPool.Get().(*PaletteScratch) }
func releaseScratch(s *PaletteScratch) { scratchPool.Put(s) }
