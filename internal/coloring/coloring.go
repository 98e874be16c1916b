// Package coloring holds the partial-coloring state shared by every stage of
// the algorithm: color assignments, palettes, the three kinds of slack of
// Section 4.1 (degree, temporary, reuse), the clique palette as a queryable
// distributed structure (Lemma 4.8), and proper-coloring verification.
//
// Colors are 1-based: the zero value None means "uncolored" (⊥), and a
// (Δ+1)-coloring uses colors 1..Δ+1. Reserved colors are the prefix 1..r.
//
// # Palette scratch ownership
//
// All palette queries run over a PaletteScratch: a flat []uint64 bitset over
// the color space plus a reusable output buffer. Hot paths own a scratch
// explicitly (one per goroutine) and call its methods — Palette, PaletteSize,
// Slack, ReuseSlack, Load/LoadedAvailable — which never allocate in steady
// state; slices returned by PaletteScratch.Palette alias the scratch and are
// valid only until its next use. The package-level functions of the same
// names keep their allocate-free-to-call signatures by borrowing a scratch
// from an internal pool; only Palette itself still allocates (exactly one
// slice, the caller-owned result).
package coloring

import (
	"fmt"
	"math"

	"clustercolor/internal/graph"
	"clustercolor/internal/parwork"
)

// None is the uncolored sentinel (⊥).
const None int32 = 0

// Coloring is a partial coloring of a graph's vertices.
type Coloring struct {
	colors []int32
	delta  int
}

// New returns the all-uncolored coloring for n vertices with color space
// [1, delta+1].
func New(n, delta int) *Coloring {
	return &Coloring{colors: make([]int32, n), delta: delta}
}

// Delta returns the Δ the color space was sized by.
func (c *Coloring) Delta() int { return c.delta }

// MaxColor returns Δ+1, the largest legal color.
func (c *Coloring) MaxColor() int32 { return int32(c.delta + 1) }

// N returns the number of vertices.
func (c *Coloring) N() int { return len(c.colors) }

// Get returns v's color (None if uncolored).
func (c *Coloring) Get(v int) int32 { return c.colors[v] }

// IsColored reports whether v is colored.
func (c *Coloring) IsColored(v int) bool { return c.colors[v] != None }

// Set colors v. Colors must lie in [1, Δ+1].
func (c *Coloring) Set(v int, col int32) error {
	if col < 1 || col > c.MaxColor() {
		return fmt.Errorf("coloring: color %d out of [1,%d]", col, c.MaxColor())
	}
	c.colors[v] = col
	return nil
}

// Unset resets v to uncolored.
func (c *Coloring) Unset(v int) { c.colors[v] = None }

// DomSize returns |dom φ|, the number of colored vertices.
func (c *Coloring) DomSize() int {
	n := 0
	for _, col := range c.colors {
		if col != None {
			n++
		}
	}
	return n
}

// Clone returns an independent copy.
func (c *Coloring) Clone() *Coloring {
	out := &Coloring{colors: make([]int32, len(c.colors)), delta: c.delta}
	copy(out.colors, c.colors)
	return out
}

// UncoloredDegree returns deg_φ(v) restricted to the active set (nil = all):
// the number of uncolored (active) neighbors.
func UncoloredDegree(g *graph.Graph, c *Coloring, v int, active func(int) bool) int {
	d := 0
	for _, u := range g.Neighbors(v) {
		if c.IsColored(int(u)) {
			continue
		}
		if active != nil && !active(int(u)) {
			continue
		}
		d++
	}
	return d
}

// Palette returns L_φ(v) = [Δ+1] \ φ(N(v)) as a sorted caller-owned slice
// (one allocation). Hot loops use PaletteScratch.Palette instead, which
// reuses a buffer across calls.
func Palette(g *graph.Graph, c *Coloring, v int) []int32 {
	s := pooledScratch()
	out := s.AppendPalette(nil, g, c, v)
	releaseScratch(s)
	return out
}

// PaletteSize returns |L_φ(v)| without materializing the palette and without
// allocating (pooled bitset scratch; popcount instead of a per-call map).
func PaletteSize(g *graph.Graph, c *Coloring, v int) int {
	s := pooledScratch()
	n := s.PaletteSize(g, c, v)
	releaseScratch(s)
	return n
}

// Available reports whether col is in L_φ(v).
func Available(g *graph.Graph, c *Coloring, v int, col int32) bool {
	if col < 1 || col > c.MaxColor() {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if c.Get(int(u)) == col {
			return false
		}
	}
	return true
}

// Slack returns s_φ(v) = |L_φ(v)| − deg_φ(v; active), the slack of
// Section 3.1 with respect to an active subgraph.
func Slack(g *graph.Graph, c *Coloring, v int, active func(int) bool) int {
	s := pooledScratch()
	n := s.Slack(g, c, v, active)
	releaseScratch(s)
	return n
}

// ReuseSlack returns |N(v) ∩ dom φ| − |φ(N(v))|: the number of "repeated
// colors" among v's colored neighbors (Section 4.1's reuse slack).
func ReuseSlack(g *graph.Graph, c *Coloring, v int) int {
	s := pooledScratch()
	n := s.ReuseSlack(g, c, v)
	releaseScratch(s)
	return n
}

// VerifyProper checks that φ is proper: no edge is monochromatic. It returns
// a descriptive error naming the first violation: the lowest vertex with a
// higher neighbor of its color, and the lowest such neighbor. The vertices
// are split across the worker pool. When every color lies in [0, Δ+1] and
// Δ+1 ≤ 127, the edges are checked against a one-byte copy of the colors;
// otherwise against the colors themselves.
func VerifyProper(g *graph.Graph, c *Coloring) error {
	return verify(g, c, false)
}

// VerifyComplete checks that φ is total and proper with colors in [1, Δ+1].
// A vertex uncolored or out of range is reported before any monochromatic
// edge, the lowest such vertex first; then it reports as VerifyProper. The
// completeness pass fills the one-byte copy when Δ+1 ≤ 127, so a complete
// coloring's edges are always checked against it then.
func VerifyComplete(g *graph.Graph, c *Coloring) error {
	return verify(g, c, true)
}

// verify runs VerifyComplete (complete) or VerifyProper in two parallel
// passes over contiguous chunks of the vertices. The first finds the lowest
// vertex whose color lies outside [1, Δ+1] (complete) or [0, Δ+1], and fills
// the one-byte copy when Δ+1 fits a byte; the second finds each chunk's
// lowest monochromatic edge, and the lowest chunk with one names the same
// violation a serial scan would.
func verify(g *graph.Graph, c *Coloring, complete bool) error {
	n := g.N()
	maxColor := c.MaxColor()
	minColor := None
	if complete {
		minColor = 1
	}
	var small []int8
	if maxColor <= math.MaxInt8 {
		small = make([]int8, n)
	}
	chunks := parwork.RangeChunks(n)
	if complete || small != nil {
		bad, err := parwork.ForEach(chunks, func(i int) (int, error) {
			lo, hi := parwork.ChunkBoundsIn(n, chunks, i)
			for v := lo; v < hi; v++ {
				col := c.colors[v]
				if col < minColor || col > maxColor {
					return v, nil
				}
				if small != nil {
					small[v] = int8(col)
				}
			}
			return -1, nil
		})
		if err != nil {
			return err
		}
		for _, v := range bad {
			if v < 0 {
				continue
			}
			if !complete {
				// A color outside [0, Δ+1] may alias another in a byte.
				small = nil
				break
			}
			if col := c.colors[v]; col != None {
				return fmt.Errorf("coloring: vertex %d has color %d outside [1,%d]", v, col, maxColor)
			}
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
	}
	var found []monoEdge
	var err error
	if small != nil {
		found, err = monochromatic(g, small, chunks)
	} else {
		found, err = monochromatic(g, c.colors, chunks)
	}
	if err != nil {
		return err
	}
	for _, f := range found {
		if f.v >= 0 {
			return fmt.Errorf("coloring: edge {%d,%d} monochromatic with color %d", f.v, f.u, c.colors[f.v])
		}
	}
	return nil
}

// monoEdge is one chunk's lowest vertex v with a higher neighbor u of its
// color, u the lowest such; v is −1 when the chunk has none.
type monoEdge struct {
	v, u int32
}

// monochromatic returns monoEdge per chunk of [0, g.N()) for the colors
// held as S.
func monochromatic[S int8 | int32](g *graph.Graph, colors []S, chunks int) ([]monoEdge, error) {
	n := g.N()
	return parwork.ForEach(chunks, func(i int) (monoEdge, error) {
		lo, hi := parwork.ChunkBoundsIn(n, chunks, i)
		for v := lo; v < hi; v++ {
			col := colors[v]
			if col == 0 {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if int(u) > v && colors[u] == col {
					return monoEdge{int32(v), u}, nil
				}
			}
		}
		return monoEdge{-1, -1}, nil
	})
}

// CountColors returns the number of distinct colors in use.
func (c *Coloring) CountColors() int {
	distinct := make(map[int32]struct{})
	for _, col := range c.colors {
		if col != None {
			distinct[col] = struct{}{}
		}
	}
	return len(distinct)
}
