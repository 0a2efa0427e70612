package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// volatileTree builds a Tree on an in-memory store whose "engine metadata
// page" is a byte slice the Commit hook swaps, so reopen-from-blob works
// without a FileStore.
type volatileTree struct {
	store *disk.Store
	base  Base
	blob  []byte
	fe    int
}

func newVolatile(t *testing.T, kind byte, pageSize, flushEvery int) (*volatileTree, *Tree) {
	t.Helper()
	base, err := BaseFor(kind)
	if err != nil {
		t.Fatalf("BaseFor(%d): %v", kind, err)
	}
	v := &volatileTree{store: disk.MustStore(pageSize), base: base, fe: flushEvery}
	tr, err := New(v.config(), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return v, tr
}

func (v *volatileTree) config() Config {
	return Config{
		Pager:      v.store,
		Base:       v.base,
		FlushEvery: v.fe,
		Commit: func(_ disk.Pager, blob []byte) error {
			v.blob = append([]byte(nil), blob...)
			return nil
		},
	}
}

func (v *volatileTree) reopen(t *testing.T) *Tree {
	t.Helper()
	tr, err := Open(v.config(), v.blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return tr
}

func pt(x, y int64, id uint64) record.Point { return record.Point{X: x, Y: y, ID: id} }

func sortedCopy(pts []record.Point) []record.Point {
	out := slices.Clone(pts)
	slices.SortFunc(out, record.CmpXYID)
	return out
}

func wantQuery(live map[record.Point]bool, a, b int64) []record.Point {
	var out []record.Point
	for p := range live {
		if p.X >= a && p.Y >= b {
			out = append(out, p)
		}
	}
	return sortedCopy(out)
}

func checkQuery(t *testing.T, tr *Tree, s *disk.Store, live map[record.Point]bool, a, b int64) {
	t.Helper()
	if err := queryDiff(tr, s, live, a, b); err != nil {
		t.Fatal(err)
	}
}

// queryDiff reports how the tree's answer to {x >= a, y >= b} differs from
// the live set, nil when it matches.
func queryDiff(tr *Tree, s *disk.Store, live map[record.Point]bool, a, b int64) error {
	got, _, err := tr.AppendQuery(s, nil, a, b)
	if err != nil {
		return fmt.Errorf("Query(%d,%d): %v", a, b, err)
	}
	want := wantQuery(live, a, b)
	gs := sortedCopy(got)
	if len(gs) != len(want) {
		return fmt.Errorf("Query(%d,%d) returned %d points, want %d\ngot  %v\nwant %v", a, b, len(gs), len(want), gs, want)
	}
	for i := range gs {
		if gs[i] != want[i] {
			return fmt.Errorf("Query(%d,%d)[%d] = %v, want %v", a, b, i, gs[i], want[i])
		}
	}
	return nil
}

// TestTreeLifecycle drives insert/flush/delete/compact/reopen on the
// 2-sided base and cross-checks every query against a map oracle.
func TestTreeLifecycle(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 4)
	live := map[record.Point]bool{}
	rng := rand.New(rand.NewSource(7))

	insert := func(p record.Point) {
		t.Helper()
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
		live[p] = true
		if tr.NeedsFlush() {
			if _, err := tr.Flush(v.store); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	remove := func(p record.Point) {
		t.Helper()
		if err := tr.Delete(v.store, p); err != nil {
			t.Fatalf("Delete(%v): %v", p, err)
		}
		delete(live, p)
		if tr.NeedsFlush() {
			if _, err := tr.Flush(v.store); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}

	var all []record.Point
	for i := 0; i < 60; i++ {
		p := pt(rng.Int63n(100), rng.Int63n(100), uint64(i))
		all = append(all, p)
		insert(p)
	}
	if tr.Len() != 60 {
		t.Fatalf("Len = %d, want 60", tr.Len())
	}
	checkQuery(t, tr, v.store, live, 0, 0)
	checkQuery(t, tr, v.store, live, 50, 50)

	// Delete a third, including some still in the memtable.
	for i := 0; i < 20; i++ {
		remove(all[i*3])
	}
	checkQuery(t, tr, v.store, live, 0, 0)
	checkQuery(t, tr, v.store, live, 30, 10)

	// Re-insert a deleted point: the revive path.
	revived := all[0]
	insert(revived)
	checkQuery(t, tr, v.store, live, 0, 0)

	// Force everything through a flush, compact, and check again.
	if _, err := tr.Flush(v.store); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if _, err := tr.Compact(v.store); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if tr.TombCount() != 0 {
		t.Fatalf("TombCount after compact = %d", tr.TombCount())
	}
	if tr.Levels() != 1 {
		t.Fatalf("Levels after compact = %d, want 1", tr.Levels())
	}
	checkQuery(t, tr, v.store, live, 0, 0)
	checkQuery(t, tr, v.store, live, 70, 20)

	// Reopen from the committed blob and compare.
	re := v.reopen(t)
	if re.Len() != tr.Len() {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), tr.Len())
	}
	checkQuery(t, re, v.store, live, 0, 0)
	checkQuery(t, re, v.store, live, 50, 50)
}

// TestTreeWALReplay leaves entries in the WAL (no flush) and checks a
// reopen replays them exactly.
func TestTreeWALReplay(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 100)
	live := map[record.Point]bool{}
	for i := 0; i < 7; i++ {
		p := pt(int64(i), int64(10-i), uint64(i))
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		live[p] = true
	}
	if err := tr.Delete(v.store, pt(3, 7, 3)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(live, pt(3, 7, 3))

	re := v.reopen(t)
	if re.Len() != len(live) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(live))
	}
	if re.WALEntries() != 8 {
		t.Fatalf("reopened WALEntries = %d, want 8", re.WALEntries())
	}
	checkQuery(t, re, v.store, live, 0, 0)

	// The replayed tree keeps accepting updates on the same WAL.
	p := pt(42, 42, 99)
	if err := re.Insert(v.store, p); err != nil {
		t.Fatalf("Insert after replay: %v", err)
	}
	live[p] = true
	re2 := v.reopen(t)
	checkQuery(t, re2, v.store, live, 0, 0)
}

// TestTreeStab checks the stabbing shape on the interval base: points are
// diagonal-corner interval encodings.
func TestTreeStab(t *testing.T) {
	for _, kind := range []byte{BaseSegment, BaseInterval, BaseStabbing} {
		kind := kind
		t.Run(fmt.Sprintf("kind%d", kind), func(t *testing.T) {
			v, tr := newVolatile(t, kind, 256, 3)
			type iv struct{ lo, hi int64 }
			ivs := []iv{{0, 10}, {5, 15}, {12, 20}, {-3, 4}, {8, 9}, {14, 30}, {1, 2}}
			for i, s := range ivs {
				p := record.Point{X: -s.lo, Y: s.hi, ID: uint64(i)}
				if err := tr.Insert(v.store, p); err != nil {
					t.Fatalf("Insert: %v", err)
				}
				if tr.NeedsFlush() {
					if _, err := tr.Flush(v.store); err != nil {
						t.Fatalf("Flush: %v", err)
					}
				}
			}
			for _, q := range []int64{-5, 0, 4, 9, 13, 21, 31} {
				got, _, err := tr.AppendStab(v.store, nil, q)
				if err != nil {
					t.Fatalf("Stab(%d): %v", q, err)
				}
				var want int
				for _, s := range ivs {
					if s.lo <= q && q <= s.hi {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("Stab(%d) = %d intervals, want %d", q, len(got), want)
				}
				for _, p := range got {
					if !(-p.X <= q && q <= p.Y) {
						t.Fatalf("Stab(%d) returned non-stabbed interval [%d,%d]", q, -p.X, p.Y)
					}
				}
			}
			// The 2-sided shape is unsupported on pure interval bases.
			if kind != BaseStabbing {
				if _, _, err := tr.AppendQuery(v.store, nil, 0, 0); !errors.Is(err, ErrUnsupported) {
					t.Fatalf("Query on kind %d = %v, want ErrUnsupported", kind, err)
				}
			}
		})
	}
}

// TestTreeHas exercises the bloom-guided membership probe.
func TestTreeHas(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 2)
	pts := []record.Point{pt(1, 1, 1), pt(2, 2, 2), pt(3, 3, 3), pt(4, 4, 4), pt(5, 5, 5)}
	for _, p := range pts {
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if tr.NeedsFlush() {
			if _, err := tr.Flush(v.store); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	for _, p := range pts {
		ok, _, err := tr.Has(v.store, p)
		if err != nil {
			t.Fatalf("Has(%v): %v", p, err)
		}
		if !ok {
			t.Fatalf("Has(%v) = false for a live record", p)
		}
	}
	for _, p := range []record.Point{pt(1, 1, 9), pt(100, 100, 100), pt(-1, -1, 0)} {
		ok, _, err := tr.Has(v.store, p)
		if err != nil {
			t.Fatalf("Has(%v): %v", p, err)
		}
		if ok {
			t.Fatalf("Has(%v) = true for an absent record", p)
		}
	}
	// Tombstoned records probe false immediately and after flush.
	if err := tr.Delete(v.store, pts[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for i := 0; i < 2; i++ {
		ok, _, err := tr.Has(v.store, pts[0])
		if err != nil {
			t.Fatalf("Has: %v", err)
		}
		if ok {
			t.Fatalf("Has = true for deleted record (pass %d)", i)
		}
		if _, err := tr.Flush(v.store); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
}

// TestTreeCascade checks the Bentley–Saxe level shape: flushing k times
// with a full memtable occupies the binary-counter pattern of slots.
func TestTreeCascade(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 2)
	id := uint64(0)
	fill := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			id++
			if err := tr.Insert(v.store, pt(int64(id), int64(id), id)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		if !tr.NeedsFlush() {
			t.Fatal("memtable full but NeedsFlush is false")
		}
		if _, err := tr.Flush(v.store); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	// Flush counts 1..3: slots follow a binary counter (1 -> 10 -> 11).
	fill()
	if got := tr.LevelInfos(); len(got) != 1 || got[0].Slot != 0 {
		t.Fatalf("after 1 flush: %+v", got)
	}
	fill()
	if got := tr.LevelInfos(); len(got) != 1 || got[0].Slot != 1 || got[0].Records != 4 {
		t.Fatalf("after 2 flushes: %+v", got)
	}
	fill()
	got := tr.LevelInfos()
	if len(got) != 2 || got[0].Slot != 0 || got[1].Slot != 1 {
		t.Fatalf("after 3 flushes: %+v", got)
	}
	if tr.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", tr.Seq())
	}
}

// TestCompactConcurrent races compactions on their own goroutine against
// writers; every compaction commits, and the final state matches the
// oracle, before and after a reopen.
func TestCompactConcurrent(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 4)
	var mu sync.Mutex // serializes store access ordering for the oracle only
	live := map[record.Point]bool{}

	done := make(chan struct{})
	var compactErrs []error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := tr.Compact(v.store); err != nil {
				mu.Lock()
				compactErrs = append(compactErrs, err)
				mu.Unlock()
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		p := pt(rng.Int63n(50), rng.Int63n(50), uint64(i))
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		mu.Lock()
		live[p] = true
		mu.Unlock()
		if tr.NeedsFlush() {
			if _, err := tr.Flush(v.store); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	close(done)
	wg.Wait()
	for _, err := range compactErrs {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := tr.Flush(v.store); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	checkQuery(t, tr, v.store, live, 0, 0)
	re := v.reopen(t)
	checkQuery(t, re, v.store, live, 0, 0)
}

// TestTreeOpenWrongBase rejects a blob committed under a different base.
func TestTreeOpenWrongBase(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 4)
	if err := tr.Insert(v.store, pt(1, 1, 1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	other, err := BaseFor(BaseWindow)
	if err != nil {
		t.Fatalf("BaseFor: %v", err)
	}
	cfg := v.config()
	cfg.Base = other
	if _, err := Open(cfg, v.blob); err == nil {
		t.Fatal("Open with mismatched base succeeded")
	}
}

// TestTreePageAccounting flushes and compacts repeatedly and checks the
// store's live page count stays bounded — superseded chains, tree pages and
// manifests really are freed.
func TestTreePageAccounting(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 128; i++ {
		if err := tr.Insert(v.store, pt(rng.Int63n(1000), rng.Int63n(1000), uint64(i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if tr.NeedsFlush() {
			if _, err := tr.Flush(v.store); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	if _, err := tr.Compact(v.store); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	liveBefore := v.store.NumPages()
	// Churn: insert-then-delete batches with compactions in between; live
	// pages must stay in the same ballpark rather than growing monotonically.
	for round := 0; round < 3; round++ {
		var batch []record.Point
		for i := 0; i < 64; i++ {
			p := pt(rng.Int63n(1000), rng.Int63n(1000), uint64(1000+round*100+i))
			batch = append(batch, p)
			if err := tr.Insert(v.store, p); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			if tr.NeedsFlush() {
				if _, err := tr.Flush(v.store); err != nil {
					t.Fatalf("Flush: %v", err)
				}
			}
		}
		for _, p := range batch {
			if err := tr.Delete(v.store, p); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if tr.NeedsFlush() {
				if _, err := tr.Flush(v.store); err != nil {
					t.Fatalf("Flush: %v", err)
				}
			}
		}
		if _, err := tr.Compact(v.store); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	liveAfter := v.store.NumPages()
	if liveAfter > liveBefore*4+64 {
		t.Fatalf("live pages grew from %d to %d across churn; superseded state is leaking", liveBefore, liveAfter)
	}
}

// TestTreeOpenTombPagesMismatch rewrites a committed manifest with a
// tombstone page count that disagrees with the chain it names: Open must
// refuse it as corrupt rather than carry the wrong count forward into the
// next manifest.
func TestTreeOpenTombPagesMismatch(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 0)
	var pts []record.Point
	for i := 0; i < 20; i++ {
		p := pt(int64(i), int64(i), uint64(i+1))
		pts = append(pts, p)
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if _, err := tr.Flush(v.store); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, p := range pts[:15] {
		if err := tr.Delete(v.store, p); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if _, err := tr.Flush(v.store); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	m, _, err := readManifest(v.store, v.blob)
	if err != nil {
		t.Fatalf("readManifest: %v", err)
	}
	if m.tombPages < 2 {
		t.Fatalf("setup: tombstone chain of %d pages, want at least 2", m.tombPages)
	}
	v.reopen(t) // the committed manifest is consistent
	for _, pages := range []uint32{0, m.tombPages - 1, m.tombPages + 1} {
		bad := *m
		bad.tombPages = pages
		_, blob, err := writeManifest(v.store, &bad)
		if err != nil {
			t.Fatalf("writeManifest: %v", err)
		}
		if _, err := Open(v.config(), blob); !errors.Is(err, disk.ErrCorrupt) {
			t.Errorf("tombPages %d of %d: Open err = %v, want ErrCorrupt", pages, m.tombPages, err)
		}
	}
}
