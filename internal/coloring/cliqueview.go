package coloring

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"clustercolor/internal/cluster"
)

// CliqueView is one almost-clique K as its members know it after O(1)
// H-rounds: the member ids, each member's color, which members are
// adjacent, and which colors each member's non-member neighbours hold. The
// clique primitives — the colorful matchings (matching.Sampling,
// FingerprintMatching, ColorPairs), the synchronized color trial (sct.Run)
// and put-aside donation (putaside.ColorPutAside) — take every decision
// from these facts alone. They address members by their index in Members,
// read through the view, and write their outcome only to Colors.
//
// Two fillers build the same view. Fill reads it from H and a coloring;
// Reset and SetMember assemble it from the member records a machine-level
// protocol gossips (internal/distsim). The view's facts are therefore the
// exact list a machine protocol must deliver to every member leader.
//
// A view is reusable: a refill recycles every buffer, so one view per
// worker serves a whole stage loop.
type CliqueView struct {
	// Members are the member vertex ids, in task order.
	Members []int
	// Colors holds each member's current color (None if uncolored).
	Colors []int32
	// N is the number of vertices of H, the domain of min-wise hashes over
	// vertex ids.
	N int
	// MaxColor is Δ+1, the largest legal color.
	MaxColor int32
	// CG is the charge hook: primitives charge their H-rounds to its cost
	// model. Nil charges nothing, for a caller that measures communication
	// on the message engine instead.
	CG *cluster.CG

	adjWords, extWords int
	// adj row i (adjWords words) has bit j set when members i and j are
	// H-adjacent; ext row i (extWords words) has bit c set when a
	// non-member neighbour of member i holds color c.
	adj, ext []uint64

	scratch PaletteScratch
	palette CliquePalette
}

// memberIndex lends Fill an n-sized vertex → member-index array, -1 outside
// the clique between uses, so a view itself holds only clique-sized state.
var memberIndex = sync.Pool{New: func() any { return new([]int32) }}

// NewCliqueView returns the view Fill builds.
func NewCliqueView(cg *cluster.CG, col *Coloring, members []int) (*CliqueView, error) {
	v := &CliqueView{}
	return v, v.Fill(cg, col, members)
}

// Fill loads the view of the clique members from cg.H and col, reading
// each member's neighbour list once, and binds the view's charges to cg. A
// member listed twice is an error.
func (v *CliqueView) Fill(cg *cluster.CG, col *Coloring, members []int) error {
	h := cg.H
	n := h.N()
	v.Reset(n, col.MaxColor(), members)
	v.CG = cg
	lent := memberIndex.Get().(*[]int32)
	if len(*lent) != n {
		*lent = make([]int32, n)
		for u := range *lent {
			(*lent)[u] = -1
		}
	}
	pos := *lent
	marked := 0
	defer func() {
		for _, u := range members[:marked] {
			pos[u] = -1
		}
		memberIndex.Put(lent)
	}()
	for i, u := range members {
		if u < 0 || u >= n {
			return fmt.Errorf("coloring: clique member %d outside [0,%d)", u, n)
		}
		if pos[u] >= 0 {
			return fmt.Errorf("coloring: vertex %d listed twice in the clique", u)
		}
		pos[u] = int32(i)
		marked++
	}
	for i, u := range members {
		v.Colors[i] = col.colors[u]
		adj, ext := v.adjRow(i), v.extRow(i)
		for _, w := range h.Neighbors(u) {
			if j := pos[w]; j >= 0 {
				adj[j>>6] |= 1 << uint(j&63)
			} else if c := col.colors[w]; c != None {
				ext[c>>6] |= 1 << uint(c&63)
			}
		}
	}
	return nil
}

// Reset sizes the view for the clique members in an H of n vertices over
// colors 1..maxColor, with every member uncolored, no member adjacent to
// another, no non-member color and no charge hook. SetMember then records
// each member.
func (v *CliqueView) Reset(n int, maxColor int32, members []int) {
	k := len(members)
	v.Members, v.N, v.MaxColor, v.CG = members, n, maxColor, nil
	v.adjWords, v.extWords = k/64+1, int(maxColor)/64+1
	v.Colors = zeroed(v.Colors, k)
	v.adj = zeroed(v.adj, k*v.adjWords)
	v.ext = zeroed(v.ext, k*v.extWords)
}

// SetMember records member i's color, its member-adjacency row (bit j of
// word j/64 set when member j is a neighbour) and the colors its
// non-member neighbours hold (bit c of word c/64), copying both rows. The
// rows must have the widths Fill uses: len(Members)/64+1 and MaxColor/64+1
// words.
func (v *CliqueView) SetMember(i int, color int32, adj, ext []uint64) error {
	if len(adj) != v.adjWords || len(ext) != v.extWords {
		return fmt.Errorf("coloring: member %d rows have %d and %d words, want %d and %d",
			i, len(adj), len(ext), v.adjWords, v.extWords)
	}
	v.Colors[i] = color
	copy(v.adjRow(i), adj)
	copy(v.extRow(i), ext)
	return nil
}

// Diff returns nil when v and w hold the same facts, and otherwise an error
// naming the first that differs: the clique size, H's order, the color
// space, or a member's id, color, adjacency row (adj) or non-member colors
// (ext). The charge hooks are not compared.
func (v *CliqueView) Diff(w *CliqueView) error {
	switch {
	case len(v.Members) != len(w.Members):
		return fmt.Errorf("%d members, want %d", len(v.Members), len(w.Members))
	case v.N != w.N:
		return fmt.Errorf("N %d, want %d", v.N, w.N)
	case v.MaxColor != w.MaxColor:
		return fmt.Errorf("MaxColor %d, want %d", v.MaxColor, w.MaxColor)
	}
	for i := range v.Members {
		field := ""
		switch {
		case v.Members[i] != w.Members[i]:
			field = "id"
		case v.Colors[i] != w.Colors[i]:
			field = "color"
		case !slices.Equal(v.adjRow(i), w.adjRow(i)):
			field = "adj"
		case !slices.Equal(v.extRow(i), w.extRow(i)):
			field = "ext"
		default:
			continue
		}
		return fmt.Errorf("member %d (vertex %d): %s differs", i, w.Members[i], field)
	}
	return nil
}

// Store writes the members' colors into col.
func (v *CliqueView) Store(col *Coloring) error {
	for i, u := range v.Members {
		if c := v.Colors[i]; c == None {
			col.Unset(u)
		} else if err := col.Set(u, c); err != nil {
			return err
		}
	}
	return nil
}

// Charge charges k H-rounds of payloadBits each to the charge hook's cost
// model under the phase label phase+suffix; with no hook it charges nothing
// and builds no label.
func (v *CliqueView) Charge(phase, suffix string, k, payloadBits int) {
	if v.CG != nil {
		v.CG.ChargeHRounds(phase+suffix, k, payloadBits)
	}
}

// IDBits is the charge hook's identifier width, the unit of most charged
// payloads (0 with no hook).
func (v *CliqueView) IDBits() int {
	if v.CG == nil {
		return 0
	}
	return v.CG.IDBits()
}

func (v *CliqueView) adjRow(i int) []uint64 { return v.adj[i*v.adjWords : (i+1)*v.adjWords] }
func (v *CliqueView) extRow(i int) []uint64 { return v.ext[i*v.extWords : (i+1)*v.extWords] }

// HasEdge reports whether members i and j are adjacent in H.
func (v *CliqueView) HasEdge(i, j int) bool {
	return v.adj[i*v.adjWords+(j>>6)]&(1<<uint(j&63)) != 0
}

// AppendNeighbors appends the member neighbours of member i to dst in
// ascending member order and returns it.
func (v *CliqueView) AppendNeighbors(dst []int, i int) []int {
	for w, word := range v.adjRow(i) {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	return dst
}

// ExtHolds reports whether a non-member neighbour of member i holds c.
func (v *CliqueView) ExtHolds(i int, c int32) bool {
	return c >= 1 && c <= v.MaxColor && v.ext[i*v.extWords+int(c>>6)]&(1<<uint(c&63)) != 0
}

// NeighborHolds reports whether a member neighbour of member i other than
// member except currently holds c (a negative except excludes none).
func (v *CliqueView) NeighborHolds(i int, c int32, except int) bool {
	for w, word := range v.adjRow(i) {
		for ; word != 0; word &= word - 1 {
			if j := w<<6 | bits.TrailingZeros64(word); j != except && v.Colors[j] == c {
				return true
			}
		}
	}
	return false
}

// Available reports whether c ∈ L_φ(member i): a legal color that no
// neighbour of member i holds. It is Available over the view.
func (v *CliqueView) Available(i int, c int32) bool {
	return c >= 1 && c <= v.MaxColor && !v.ExtHolds(i, c) && !v.NeighborHolds(i, c, -1)
}

// Used loads φ(N(member i)) — the non-member neighbours' colors plus the
// member neighbours' current colors — into the view's palette scratch and
// returns it, so LoadedAvailable and FreeColors answer for member i as they
// do after PaletteScratch.Load. The scratch is the view's own and is valid
// until the next Used.
func (v *CliqueView) Used(i int) *PaletteScratch {
	s := &v.scratch
	s.reset(v.MaxColor)
	copy(s.used, v.extRow(i))
	for w, word := range v.adjRow(i) {
		for ; word != 0; word &= word - 1 {
			if c := v.Colors[w<<6|bits.TrailingZeros64(word)]; c != None {
				s.used[c>>6] |= 1 << uint(c&63)
			}
		}
	}
	return s
}

// Palette builds the clique palette of the members' current colors into the
// view's reusable palette and charges one build, as BuildCliquePalette
// does. The result is valid until the next Palette call on v.
func (v *CliqueView) Palette() *CliquePalette {
	cp := &v.palette
	cp.reset(v.MaxColor)
	for _, c := range v.Colors {
		if c != None {
			cp.used[c]++
		}
	}
	cp.tally(v.MaxColor)
	v.Charge("palette/build", "", 1, 2*v.IDBits())
	return cp
}

// zeroed returns s resized to n elements, all zero, reusing its array when
// it is large enough.
func zeroed[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
