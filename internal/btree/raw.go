package btree

import (
	"fmt"

	"pathcache/internal/disk"
)

// This file is the zero-copy read path Search and Range use. It works
// directly on the page bytes: one pooled scratch page per operation, no
// node decoding and no []Entry allocation.
//
// Keys are compared in order-preserving unsigned form (int64 with the sign
// bit flipped), so a composite (Key, Val) compare is two unsigned compares.

// signFlip maps int64 to order-preserving uint64.
const signFlip = 1 << 63

// rawEntryLess reports entry-at-off < (ku, val), with ku already sign
// flipped.
func rawEntryLess(buf []byte, off int, ku, val uint64) bool {
	sk := le64(buf[off:]) ^ signFlip
	return sk < ku || (sk == ku && le64(buf[off+8:]) < val)
}

// rawEntryGreater reports entry-at-off > (ku, val).
func rawEntryGreater(buf []byte, off int, ku, val uint64) bool {
	sk := le64(buf[off:]) ^ signFlip
	return sk > ku || (sk == ku && le64(buf[off+8:]) > val)
}

// leafLower returns the index of the first leaf entry >= (ku, val) among
// n entries, or n when none.
func leafLower(buf []byte, n int, ku, val uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rawEntryLess(buf, leafFixed+mid*leafEntry, ku, val) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rawChild picks the child page to descend into for (ku, val) directly from
// an internal node's bytes: the pointer of the last separator <= (ku, val),
// or child0 when every separator is greater — the child childIndex would
// select.
func rawChild(buf []byte, n int, ku, val uint64) disk.PageID {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !rawEntryGreater(buf, intFixed+mid*intEntry, ku, val) { // sep <= e
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return disk.PageID(le64(buf[hdrSize:]))
	}
	return disk.PageID(le64(buf[intFixed+(lo-1)*intEntry+16:]))
}

// rangeRaw is Range over the zero-copy path, reading through p. One pooled
// page buffer serves the whole operation; fn receives copies, so nothing
// aliases the buffer once rangeRaw returns it.
func (t *Tree) rangeRaw(p disk.Pager, lo, hi int64, fn func(key int64, val uint64) bool) error {
	ku := uint64(lo) ^ signFlip
	hku := uint64(hi) ^ signFlip
	const val = 0 // range start at Val 0: first entry with Key >= lo
	bp := disk.GetPageBuf(p.PageSize())
	defer disk.PutPageBuf(bp)
	buf := *bp
	id := t.root
	for {
		if err := p.Read(id, buf); err != nil {
			return err
		}
		kind, count, err := checkHeader(buf, id)
		if err != nil {
			return err
		}
		if kind == kindLeaf {
			return scanLeavesRaw(p, buf, leafLower(buf, count, ku, val), count, hku, fn)
		}
		id = rawChild(buf, count, ku, val)
	}
}

// scanLeavesRaw emits entries up to hku from index i of the leaf in buf
// onward, following the leaf chain through p.
func scanLeavesRaw(p disk.Pager, buf []byte, i, count int, hku uint64, fn func(key int64, val uint64) bool) error {
	for {
		for ; i < count; i++ {
			off := leafFixed + i*leafEntry
			ek := le64(buf[off:]) ^ signFlip
			if ek > hku {
				return nil
			}
			if !fn(int64(ek^signFlip), le64(buf[off+8:])) {
				return nil
			}
		}
		id := disk.PageID(int64(le64(buf[hdrSize:])))
		if id == disk.InvalidPage {
			return nil
		}
		if err := p.Read(id, buf); err != nil {
			return err
		}
		kind, c, err := checkHeader(buf, id)
		if err != nil {
			return err
		}
		if kind != kindLeaf {
			return fmt.Errorf("btree: leaf chain reaches non-leaf node %d: %w", id, disk.ErrCorrupt)
		}
		i, count = 0, c
	}
}
