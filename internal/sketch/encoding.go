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
func EncodeDeviation[C Cell](row []C) []byte { return deviationWriter(row).buf }

// deviationWriter writes EncodeDeviation's bits; its nbit is the exact bit
// length encodedBits returns.
func deviationWriter[C Cell](row []C) *bitWriter {
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
	return w
}

// encodedBits returns the exact bit length of EncodeDeviation(row) without
// materializing it, in one counting pass over the row: the cells go into a
// histogram indexed by the cell byte, a walk of it in signed order finds
// DeviationBaseline's lower median k, and each value y costs
// count·(2 + |y − k|) bits (sign, unary deviation, separator) after the two
// Elias-gamma headers. The histogram lives on the stack, so the collect
// wave prices every row without allocating.
func encodedBits[C Cell](row []C) int {
	var hist [256]int32
	for _, y := range row {
		hist[uint8(y)]++
	}
	k := 0
	if len(row) > 0 {
		mid := int32((len(row) + 1) / 2)
		var run int32
		for y := -128; y < 128; y++ {
			if run += hist[uint8(y)]; run >= mid {
				k = y
				break
			}
		}
	}
	n := eliasGammaBits(uint64(len(row))+1) + eliasGammaBits(uint64(k)+2) + 2*len(row)
	for y := -128; y < 128; y++ {
		if c := int(hist[uint8(y)]); c > 0 {
			dev := y - k
			if dev < 0 {
				dev = -dev
			}
			n += c * dev
		}
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
