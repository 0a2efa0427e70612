package record

import (
	"math"
	"slices"
)

// SortXYID sorts pts into (X, Y, ID) order, the order CmpXYID defines and
// every builder expects its input in, using scratch as its second buffer.
// scratch must be nil (SortXYID then allocates one) or at least as long as
// pts.
//
// It is an LSD radix sort on X, ping-ponging between pts and scratch, then
// a comparison sort on (Y, ID) inside each run of equal X. Flipping the
// sign bit makes the unsigned byte order the signed order. One histogram
// pass counts all eight byte positions at once; a position where every key
// has the same byte would be an identity pass and is skipped, so 30-bit
// keys cost four scatter passes, not eight. Every pass is a stable linear
// sweep over contiguous memory. CmpXYID ties only identical records, so
// the result is the one sequence any correct sort by CmpXYID gives.
func SortXYID(pts, scratch []Point) {
	n := len(pts)
	if n < 2 {
		return
	}
	if uint64(n) > math.MaxUint32 { // beyond the 32-bit histogram counts
		slices.SortFunc(pts, CmpXYID)
		return
	}
	if scratch == nil {
		scratch = make([]Point, n)
	}
	const sign = 1 << 63
	var counts [8][256]uint32
	for _, p := range pts {
		k := uint64(p.X) ^ sign
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	k0 := uint64(pts[0].X) ^ sign
	src, dst := pts, scratch[:n]
	for b := range counts {
		c, shift := &counts[b], 8*uint(b)
		if int(c[byte(k0>>shift)]) == n {
			continue
		}
		var off uint32
		for v := range c {
			c[v], off = off, off+c[v]
		}
		for _, p := range src {
			v := byte((uint64(p.X) ^ sign) >> shift)
			dst[c[v]] = p
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pts[0] {
		copy(pts, src)
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && pts[j].X == pts[i].X {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(pts[i:j], CmpXYID)
		}
		i = j
	}
}
