package disk

import "sync"

// Page scratch buffers. A read path that needs a page-sized buffer only for
// the length of one operation — a chain scan, a skeletal walker's views, the
// FileStore's checksummed slot — draws it here and hands it back when the
// operation ends, instead of leaving one garbage page per read for the
// collector. The lifetime rule is the one views already follow (DESIGN
// §14): nothing that aliases a scratch buffer may outlive the operation
// that released it, so results leave an operation as copies.

// maxPooledPage caps the buffers the pool keeps. Larger pages are rare
// (only tests and odd files use them) and are left to the collector, so a
// single huge page cannot stay pinned in every processor's pool.
const maxPooledPage = 64 << 10

var pageBufs sync.Pool

// GetPageBuf returns a scratch buffer of n bytes with undefined contents.
// Return it with PutPageBuf once nothing references it.
func GetPageBuf(n int) *[]byte {
	if bp, ok := pageBufs.Get().(*[]byte); ok {
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	// Round the capacity up to a power of two so a store's physical slot
	// (pageSize) and its usable payload (pageSize - 4) share one size class.
	c := 1
	for c < n {
		c <<= 1
	}
	b := make([]byte, n, c)
	return &b
}

// PutPageBuf returns a buffer from GetPageBuf to the pool. The caller must
// hold no alias of it afterwards.
func PutPageBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledPage {
		pageBufs.Put(bp)
	}
}
