package sketch

import (
	"fmt"
	"math/bits"
)

// The max kernel's wire format is the deviation encoding of Lemmas 5.5–5.6:
// a sketch's maxima concentrate around log d, so instead of spending
// O(log log n) bits per entry we store a baseline k plus each entry's
// deviation |Y_i − k| in unary with a sign bit. Lemma 5.5 bounds the total
// deviation by O(t) w.h.p., so the whole row costs O(t + log log d) bits.

type bitWriter struct {
	buf  []byte
	nbit int
}

func (w *bitWriter) writeBit(b int) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << (w.nbit % 8)
	}
	w.nbit++
}

func (w *bitWriter) writeUnary(m int) {
	for i := 0; i < m; i++ {
		w.writeBit(1)
	}
	w.writeBit(0)
}

// writeEliasGamma encodes x >= 1 in 2⌊log x⌋+1 bits.
func (w *bitWriter) writeEliasGamma(x uint64) {
	n := bits.Len64(x)
	for i := 0; i < n-1; i++ {
		w.writeBit(0)
	}
	for i := n - 1; i >= 0; i-- {
		w.writeBit(int(x >> i & 1))
	}
}

type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) readBit() (int, error) {
	if r.nbit >= len(r.buf)*8 {
		return 0, fmt.Errorf("sketch: truncated encoding")
	}
	b := int(r.buf[r.nbit/8] >> (r.nbit % 8) & 1)
	r.nbit++
	return b, nil
}

func (r *bitReader) readUnary() (int, error) {
	m := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return m, nil
		}
		m++
	}
}

func (r *bitReader) readEliasGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		if zeros++; zeros > 63 {
			return 0, fmt.Errorf("sketch: Elias-gamma value exceeds 64 bits")
		}
	}
	x := uint64(1)
	for i := 0; i < zeros; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		x = x<<1 | uint64(b)
	}
	return x, nil
}

// DeviationBaseline returns the k minimizing Σ|Y_i − k| — the median of the
// row, by counting selection over the small value range of sketch maxima —
// with a caller-owned counting buffer; it returns the (possibly grown)
// buffer for reuse, so per-row loops allocate only until the buffer covers
// the observed value range.
func DeviationBaseline[C Cell](row []C, counts []int) (int, []int) {
	if len(row) == 0 {
		return 0, counts
	}
	lo, hi := int(row[0]), int(row[0])
	for _, y := range row {
		if int(y) < lo {
			lo = int(y)
		}
		if int(y) > hi {
			hi = int(y)
		}
	}
	size := hi - lo + 1
	if cap(counts) < size {
		counts = make([]int, size)
	} else {
		counts = counts[:size]
		for i := range counts {
			counts[i] = 0
		}
	}
	for _, y := range row {
		counts[int(y)-lo]++
	}
	mid := (len(row) + 1) / 2
	run := 0
	for i, c := range counts {
		run += c
		if run >= mid {
			return lo + i, counts
		}
	}
	return hi, counts
}

// EncodeDeviation serializes the row with the deviation encoding:
// Elias-gamma of t, Elias-gamma of baseline k (offset so k ≥ -1 is
// representable), then a sign bit and unary deviation per trial.
func EncodeDeviation[C Cell](row []C) []byte {
	w := &bitWriter{}
	w.writeEliasGamma(uint64(len(row)) + 1)
	k, _ := DeviationBaseline(row, nil)
	w.writeEliasGamma(uint64(k) + 2) // k >= -1 → encoded >= 1
	for _, y := range row {
		dev := int(y) - k
		if dev >= 0 {
			w.writeBit(0)
			w.writeUnary(dev)
		} else {
			w.writeBit(1)
			w.writeUnary(-dev)
		}
	}
	return w.buf
}

// DeviationBits returns the exact bit length of EncodeDeviation's output for
// baseline k without materializing it.
func DeviationBits[C Cell](row []C, k int) int {
	n := eliasGammaBits(uint64(len(row))+1) + eliasGammaBits(uint64(k)+2)
	for _, y := range row {
		dev := int(y) - k
		if dev < 0 {
			dev = -dev
		}
		n += 2 + dev // sign bit + unary + separator
	}
	return n
}

func eliasGammaBits(x uint64) int { return 2*bits.Len64(x) - 1 }

// DecodeDeviation reverses EncodeDeviation into a max-kernel row. It returns
// an error, never a panic or a wrapped value, for a buffer no row encodes
// to: a truncated one, an Elias-gamma code past 64 bits, a trial count the
// remaining bits cannot hold (checked before the row is allocated), or a
// baseline or value outside [Empty, MaxCell8].
func DecodeDeviation(buf []byte) ([]int8, error) {
	r := &bitReader{buf: buf}
	tPlus, err := r.readEliasGamma()
	if err != nil {
		return nil, err
	}
	kPlus, err := r.readEliasGamma()
	if err != nil {
		return nil, err
	}
	// Every trial takes at least two bits: a sign and a unary terminator.
	t := tPlus - 1
	if t > uint64(len(buf)*8-r.nbit)/2 {
		return nil, fmt.Errorf("sketch: trial count %d exceeds the encoding", t)
	}
	if kPlus > uint64(MaxCell8)+2 {
		return nil, fmt.Errorf("sketch: baseline %d out of range", kPlus-2)
	}
	k := int(kPlus) - 2
	s := make([]int8, t)
	for i := range s {
		sign, err := r.readBit()
		if err != nil {
			return nil, err
		}
		dev, err := r.readUnary()
		if err != nil {
			return nil, err
		}
		if sign == 1 {
			dev = -dev
		}
		v := k + dev
		if v < Empty || v > int(MaxCell8) {
			return nil, fmt.Errorf("sketch: trial %d decodes to %d, outside [%d, %d]", i, v, Empty, MaxCell8)
		}
		s[i] = int8(v)
	}
	return s, nil
}
