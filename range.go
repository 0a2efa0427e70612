package pathcache

import (
	"fmt"

	"pathcache/internal/btree"
	"pathcache/internal/obs"
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
	idx, err := btree.NewLayout(c.be.Pager(), c.layout)
	if err != nil {
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	return &RangeIndex{core: c, idx: idx}, nil
}

// Layout reports the page layout the tree was created with.
func (ix *RangeIndex) Layout() Layout { return Layout(ix.idx.Layout()) }

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
	op := ix.startOp(rangeKindName, "search")
	vals, err := ix.idx.WithPager(op.pager()).Search(key)
	if err != nil {
		op.abort()
		return nil, fmt.Errorf("pathcache: %w", err)
	}
	if _, err := op.finish(len(vals), ix.idx.Len(), obs.LogBBound); err != nil {
		return nil, err
	}
	return vals, nil
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
