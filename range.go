package pathcache

import (
	"fmt"

	"pathcache/internal/btree"
	"pathcache/internal/disk"
	"pathcache/internal/obs"
	"pathcache/internal/skeletal"
)

// RangeIndex is an external B+-tree over (key, value) pairs — the paper's
// optimal 1-dimensional baseline: O(log_B n + t/B) range queries and
// O(log_B n) updates on O(n/B) pages. Experiment E8 uses it to show why
// 1-dimensional indexes are inefficient for 2-dimensional queries.
type RangeIndex struct {
	core
	idx *btree.Tree
}

// NewRangeIndex creates an empty B+-tree index.
func NewRangeIndex(opts *Options) (*RangeIndex, error) {
	c, err := newCore(opts)
	if err != nil {
		return nil, err
	}
	idx, err := btree.New(c.be.Pager())
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	return &RangeIndex{core: c, idx: idx}, nil
}

// Insert adds a (key, value) pair. The pair must be unique.
func (ix *RangeIndex) Insert(key int64, val uint64) error {
	if err := ix.idx.Insert(key, val); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	return nil
}

// Delete removes a (key, value) pair.
func (ix *RangeIndex) Delete(key int64, val uint64) error {
	if err := ix.idx.Delete(key, val); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	return nil
}

// Search returns every value stored under key. Each search is recorded as
// one "search" op against the B+-tree's O(log_B n + t/B) bound.
func (ix *RangeIndex) Search(key int64) ([]uint64, error) {
	vals, _, err := serial(ix.core, ix.op(), nil, key, ix.searchOn)
	return vals, err
}

func (ix *RangeIndex) op() opSpec {
	return opSpec{kind: rangeKindName, name: "search", n: ix.idx.Len(), bound: obs.LogBBound}
}

// searchOn looks key up through p. The B+-tree answers in a fresh slice,
// which is the answer itself when dst is nil. A B+-tree has no path
// caches, so the accounting stays zero.
func (ix *RangeIndex) searchOn(p disk.Pager, dst []uint64, key int64) ([]uint64, skeletal.QueryStats, error) {
	vals, err := ix.idx.SearchOn(p, key)
	if err != nil || dst == nil {
		return vals, skeletal.QueryStats{}, err
	}
	return append(dst, vals...), skeletal.QueryStats{}, nil
}

// rangeKindName tags the B+-tree's metric series. RangeIndex is not a
// persisted registry kind, so the name lives here instead of the registry.
const rangeKindName = "range"

// Range visits every (key, value) with lo <= key <= hi in ascending order;
// fn returns false to stop early.
func (ix *RangeIndex) Range(lo, hi int64, fn func(key int64, val uint64) bool) error {
	if err := ix.idx.Range(lo, hi, fn); err != nil {
		return fmt.Errorf("pathcache: %w", err)
	}
	return nil
}

// Len reports the number of stored pairs.
func (ix *RangeIndex) Len() int { return ix.idx.Len() }

// Pages reports the storage footprint in pages.
func (ix *RangeIndex) Pages() int { return ix.be.NumPages() }
