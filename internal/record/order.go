package record

import "cmp"

// The point orders every builder sorts and merges by, as comparators for
// slices.SortFunc and friends. Each breaks ties by the (X, Y, ID) order of
// Less, so two points compare equal only when they are the same record:
// any two correct sorts or merges of one multiset under one comparator
// produce identical sequences, which is what keeps construction output
// byte-for-byte deterministic.

// CmpXYID orders points ascending by (X, Y, ID) — the order Less defines
// and the order builders expect their input in.
func CmpXYID(p, q Point) int {
	if c := cmp.Compare(p.X, q.X); c != 0 {
		return c
	}
	if c := cmp.Compare(p.Y, q.Y); c != 0 {
		return c
	}
	return cmp.Compare(p.ID, q.ID)
}

// CmpYDesc orders points by decreasing Y, ties by CmpXYID: the order of a
// PST node's block and of every y-descending cache list.
func CmpYDesc(p, q Point) int {
	if c := cmp.Compare(q.Y, p.Y); c != 0 {
		return c
	}
	return CmpXYID(p, q)
}

// CmpXDesc orders points by decreasing X, ties by CmpXYID: the order of
// the 2-sided ancestor (A-) lists.
func CmpXDesc(p, q Point) int {
	if c := cmp.Compare(q.X, p.X); c != 0 {
		return c
	}
	return CmpXYID(p, q)
}

// CmpXAsc orders points by increasing X, ties by CmpXYID — the same order
// as CmpXYID, named for the x-ascending 3-sided ancestor lists it sorts.
func CmpXAsc(p, q Point) int { return CmpXYID(p, q) }
