// Package logmethod implements the folklore dynamization baseline the
// paper's Section 5 is competing against: the logarithmic method of Bentley
// and Saxe. The point set is partitioned into O(log(n/B)) static Segmented
// trees of geometrically increasing sizes; an insert merges the maximal
// prefix of occupied levels, and a query must run against *every* level.
//
// That per-level query tax is exactly what Theorem 5.1's buffered structure
// avoids: here a 2-sided query costs O(log(n/B)·log_B n + t/B) I/Os versus
// the paper's O(log_B n + t/B). Experiment E4 prints both side by side.
// Deletes are handled by bounded tombstoning with periodic global rebuilds,
// mirroring the dyn3side rendition so the comparison is about queries.
package logmethod

import (
	"fmt"

	"pathcache/internal/disk"
	"pathcache/internal/extpst"
	"pathcache/internal/obs"
	"pathcache/internal/record"
)

// Tree is a dynamic 2-sided index built from static levels. Not safe for
// concurrent use.
type Tree struct {
	pager disk.Pager
	b     int
	n     int // live points (inserts minus deletes)

	levels []*extpst.Tree // levels[i] holds at most B·2^i points, or nil

	tombs    map[record.Point]bool
	tombHead disk.PageID // persisted tombstone chain (charged on queries)
	inserted int         // points across all levels (includes tombstoned)
}

// New creates an empty logarithmic-method index on p.
func New(p disk.Pager) (*Tree, error) {
	b := disk.ChainCap(p.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("logmethod: page size %d holds %d points; need >= 2", p.PageSize(), b)
	}
	return &Tree{pager: p, b: b, tombs: map[record.Point]bool{}, tombHead: disk.InvalidPage}, nil
}

// Len reports the number of live points.
func (t *Tree) Len() int { return t.n }

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// Levels reports how many levels are occupied — the query multiplier.
func (t *Tree) Levels() int {
	c := 0
	for _, lv := range t.levels {
		if lv != nil {
			c++
		}
	}
	return c
}

// Insert adds a point, cascading a merge through the occupied prefix of
// levels (amortized O((log(n/B)/B)·log B) I/Os).
func (t *Tree) Insert(p record.Point) error {
	carry := []record.Point{p}
	level := 0
	for {
		if level >= len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		if t.levels[level] == nil {
			break
		}
		pts, err := t.levels[level].Points()
		if err != nil {
			return err
		}
		carry = append(carry, pts...)
		if err := t.levels[level].Destroy(); err != nil {
			return err
		}
		t.levels[level] = nil
		level++
	}
	tr, err := extpst.Build(t.pager, carry, extpst.Segmented)
	if err != nil {
		return err
	}
	t.levels[level] = tr
	t.n++
	t.inserted++
	return nil
}

// tombCap bounds pending tombstones to B·PathLen(max(n, B), B) =
// B·(⌈log_B max(n, B)⌉ + 1) so the per-query tombstone read stays within
// the search term.
func (t *Tree) tombCap() int { return t.b * obs.PathLen(max(t.n, t.b), t.b) }

// Delete tombstones a point, rebuilding globally when tombstones pile up.
// The in-memory state mutates only after the chain rewrite succeeds, so a
// failed rewrite reports an error with the delete not applied instead of
// leaving the live count out of sync with the persisted chain.
func (t *Tree) Delete(p record.Point) error {
	t.tombs[p] = true
	if err := t.rewriteTombs(); err != nil {
		delete(t.tombs, p)
		return err
	}
	t.n--
	if len(t.tombs) >= t.tombCap() {
		return t.compact()
	}
	return nil
}

// rewriteTombs re-persists the tombstone chain: write the replacement
// first, free the superseded chain only once the replacement exists (Free
// destroys page content, so the old order — free, then write — lost the
// chain whenever the write failed).
func (t *Tree) rewriteTombs() error {
	head := disk.InvalidPage
	if len(t.tombs) > 0 {
		raw := make([]byte, 0, len(t.tombs)*record.PointSize)
		for p := range t.tombs {
			var rec [record.PointSize]byte
			p.Encode(rec[:])
			raw = append(raw, rec[:]...)
		}
		h, _, err := disk.WriteChain(t.pager, record.PointSize, raw)
		if err != nil {
			return err
		}
		head = h
	}
	old := t.tombHead
	t.tombHead = head
	if old != disk.InvalidPage {
		if err := disk.FreeChain(t.pager, old); err != nil {
			return err
		}
	}
	return nil
}

// compact rebuilds a single level from all live points. The rebuild happens
// before anything is destroyed: an error while reading or building leaves
// the old levels fully intact, and an error while releasing them surfaces
// only after the rebuilt state is installed.
func (t *Tree) compact() error {
	var live []record.Point
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		pts, err := lv.Points()
		if err != nil {
			return err
		}
		for _, p := range pts {
			if !t.tombs[p] {
				live = append(live, p)
			}
		}
	}
	var tr *extpst.Tree
	if len(live) > 0 {
		var err error
		tr, err = extpst.Build(t.pager, live, extpst.Segmented)
		if err != nil {
			return err
		}
	}
	old := t.levels
	t.levels = nil
	t.tombs = map[record.Point]bool{}
	t.inserted = len(live)
	if tr != nil {
		// Place the rebuilt structure at the smallest level that fits it.
		level := 0
		for cap := t.b; cap < len(live); cap *= 2 {
			level++
		}
		for len(t.levels) <= level {
			t.levels = append(t.levels, nil)
		}
		t.levels[level] = tr
	}
	if err := t.rewriteTombs(); err != nil {
		return err
	}
	for _, lv := range old {
		if lv == nil {
			continue
		}
		if err := lv.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

// Query runs the 2-sided query against every level and filters tombstones —
// the per-level tax the paper's dynamic structure eliminates.
func (t *Tree) Query(a, b int64) ([]record.Point, error) {
	var out []record.Point
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		pts, _, err := lv.Query(a, b)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	if len(t.tombs) > 0 {
		// Charge the tombstone chain; the mirror filters.
		if _, err := disk.ScanChain(t.pager, record.PointSize, t.tombHead, func([]byte) bool { return true }); err != nil {
			return nil, err
		}
		kept := out[:0]
		for _, p := range out {
			if !t.tombs[p] {
				kept = append(kept, p)
			}
		}
		out = kept
	}
	return out, nil
}

// TotalPages reports the storage footprint when the pager is a *Store.
func (t *Tree) TotalPages() int {
	if s, ok := t.pager.(*disk.Store); ok {
		return s.NumPages()
	}
	return -1
}
