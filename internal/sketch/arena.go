package sketch

import "clustercolor/internal/parwork"

// Arena is a flat backing for n fixed-width sketch rows of cell type C. Rows
// are laid out at a stride padded up to a full 8-byte machine word (8 cells)
// so that every row starts on an 8-byte boundary, the alignment the SWAR
// merge kernels (MergeMax8, MergeMax8Pair) require, while Row still returns
// exactly the logical width. The padding cells are never read or written.
//
// The zero value is an empty arena; Reset sizes it.
type Arena[C Cell] struct {
	n      int // row count, kept apart from len(data) so zero-width rows count
	t      int // logical row width
	stride int // padded row width, a whole number of 8-byte words
	data   []C
}

// Reset sizes the arena to n rows of t cells, reusing the backing when it is
// large enough. Row contents are undefined afterwards — callers fill every
// row they read (Fill, Collect).
func (a *Arena[C]) Reset(n, t int) {
	a.n, a.t = n, t
	a.stride = (t + 7) &^ 7
	size := n * a.stride
	if cap(a.data) < size {
		a.data = make([]C, size)
	} else {
		a.data = a.data[:size]
	}
}

// Rows returns the number of rows.
func (a *Arena[C]) Rows() int { return a.n }

// Trials returns the logical row width t.
func (a *Arena[C]) Trials() int { return a.t }

// Row returns row i as a view into the backing. The view is valid until the
// next Reset; its capacity is clipped so appends cannot stomp the next row.
func (a *Arena[C]) Row(i int) []C {
	off := i * a.stride
	return a.data[off : off+a.t : off+a.stride]
}

// Fill fills every row with the kernel's singleton sketch for that row's
// party, drawing all randomness from per-row counter streams: row v is
// k.Fill(row, RowSeed(seed, v)). Rows are generated in parallel and depend
// only on (seed, v), so any schedule produces the same arena — the property
// the byte-identical-at-any-parallelism contract rests on.
func (a *Arena[C]) Fill(k Kernel[C], seed uint64) error {
	return parwork.ForRange(a.Rows(), func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			k.Fill(a.Row(v), parwork.RowSeed(seed, v))
		}
		return nil
	})
}

// Scratch bundles the per-goroutine reusable buffers of max-kernel waves: a
// merge row for two-row unions, the estimator histogram, and the counting
// buffer behind deviation encodings. The zero value is ready to use.
type Scratch[C Cell] struct {
	// Est estimates rows without allocating per call.
	Est    MaxEstimator[C]
	merged []C
	counts []int
}

// MergeTwo returns max(a, b) in the scratch's merge row. The returned slice
// is valid until the next MergeTwo. Hot loops that only need the estimate of
// the union should call Est.EstimateMerged instead, which fuses the merge
// into the histogram pass with no materialized row.
func (sc *Scratch[C]) MergeTwo(a, b []C) []C {
	sc.merged = append(sc.merged[:0], a...)
	m := sc.merged
	for i, v := range b {
		if v > m[i] {
			m[i] = v
		}
	}
	return m
}

// EncodedBits returns the deviation-encoded size of the row with the
// baseline-selection buffer reused across calls.
func (sc *Scratch[C]) EncodedBits(row []C) int {
	k, counts := DeviationBaseline(row, sc.counts)
	sc.counts = counts
	return DeviationBits(row, k)
}
