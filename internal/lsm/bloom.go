package lsm

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// Each sealed level carries a bloom filter over its record encodings so a
// membership probe (Has — the "negative stab") skips levels that cannot
// hold the record without spending a single page read. Filters are sized at
// bloomBitsPerRec bits per record with bloomHashes probes, giving a false
// positive rate around 1%; they are persisted as a byte chain next to the
// level and loaded whole at open (a level of n records costs n·10 bits,
// a fraction of its data chain).
const (
	bloomBitsPerRec = 10
	bloomHashes     = 7
)

// bloom is a standard double-hashed Bloom filter over fixed-width record
// encodings.
type bloom struct {
	bits  []byte
	nbits uint64
}

// newBloom sizes a filter for n records (n >= 1).
func newBloom(n int) *bloom {
	nbits := uint64(n) * bloomBitsPerRec
	// Round up to whole bytes, minimum one word, so the chain encoding is
	// byte-exact.
	if nbits < 64 {
		nbits = 64
	}
	nbits = (nbits + 7) &^ 7
	return &bloom{bits: make([]byte, nbits/8), nbits: nbits}
}

// hash2 derives the two FNV-style hashes double hashing combines.
func hash2(key []byte) (uint64, uint64) {
	const (
		offset1 = 14695981039346656037
		offset2 = 0x9e3779b97f4a7c15
		prime   = 1099511628211
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	for _, b := range key {
		h1 = (h1 ^ uint64(b)) * prime
		h2 = (h2 + uint64(b)) * prime
		h2 ^= h2 >> 29
	}
	return h1, h2
}

func (f *bloom) add(key []byte) {
	h1, h2 := hash2(key)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % f.nbits
		f.bits[bit/8] |= 1 << (bit % 8)
	}
}

// may reports whether the key may be in the set (false is definitive).
func (f *bloom) may(key []byte) bool {
	h1, h2 := hash2(key)
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % f.nbits
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// addPoint hashes a point's canonical fixed-width encoding.
func (f *bloom) addPoint(pt record.Point) {
	var key [record.PointSize]byte
	pt.Encode(key[:])
	f.add(key[:])
}

// mayPoint is may over a point's canonical encoding.
func (f *bloom) mayPoint(pt record.Point) bool {
	var key [record.PointSize]byte
	pt.Encode(key[:])
	return f.may(key[:])
}

// writeBloom persists the filter as a byte chain and returns its head and
// page count.
func writeBloom(p disk.Pager, f *bloom) (disk.PageID, int, error) {
	head, pages, err := disk.WriteBlob(p, f.bits)
	if err != nil {
		return disk.InvalidPage, 0, fmt.Errorf("lsm: writing bloom chain: %w", err)
	}
	return head, pages, nil
}

// readBloom loads a persisted filter of nbits bits from its chain.
func readBloom(p disk.Pager, head disk.PageID, nbits uint64) (*bloom, error) {
	raw, err := disk.ReadBlob(p, head, int(nbits/8))
	if err != nil {
		return nil, fmt.Errorf("lsm: reading bloom chain: %w", err)
	}
	return &bloom{bits: raw, nbits: nbits}, nil
}
