// Package fixedwidth_good encodes the approved way: explicit fixed-width
// byte-order calls and named size constants shared between encoder and the
// chain helpers.
package fixedwidth_good

import (
	"encoding/binary"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// descSize is the fixture's one named record width; the encoder below and
// every chain call share it.
const descSize = 16

func encode(dst []byte, count uint32, next uint64) {
	binary.LittleEndian.PutUint32(dst[0:4], count)
	binary.LittleEndian.PutUint64(dst[8:16], next)
}

func decode(src []byte) (uint32, uint64) {
	return binary.LittleEndian.Uint32(src[0:4]), binary.LittleEndian.Uint64(src[8:16])
}

func scanNamed(p disk.Pager, head disk.PageID) (int, error) {
	return disk.ScanChain(p, descSize, head, func([]byte) bool { return true })
}

func scanShared(p disk.Pager, head disk.PageID) (int, error) {
	return disk.ScanChain(p, record.PointSize, head, func([]byte) bool { return true })
}

func capNamed(pageSize int) int {
	return disk.ChainCap(pageSize, descSize)
}

func pagesDerived(pageSize, count int) int {
	return disk.ChainPages(pageSize, 2*record.PointSize, count)
}
