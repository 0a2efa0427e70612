package lsm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// seedRecords draws n distinct records in random order; interval bases get
// diagonal-corner encodings (X = -Lo, Y = Hi).
func seedRecords(n int, interval bool, rng *rand.Rand) []record.Point {
	out := make([]record.Point, n)
	for i := range out {
		if interval {
			lo := rng.Int63n(1000)
			out[i] = pt(-lo, lo+rng.Int63n(200), uint64(i))
		} else {
			out[i] = pt(rng.Int63n(1000), rng.Int63n(1000), uint64(i))
		}
	}
	return out
}

// seedCase is one seeded build: the tree, its store and what it committed.
type seedCase struct {
	store   *disk.Store
	tr      *Tree
	commits int
	syncs   int
}

// seedConfig wires a counting Commit and Sync onto a fresh store.
func seedConfig(c *seedCase, base Base, pageSize, flushEvery int) Config {
	c.store = disk.MustStore(pageSize)
	return Config{
		Pager:      c.store,
		Base:       base,
		FlushEvery: flushEvery,
		Commit:     func(disk.Pager, []byte) error { c.commits++; return nil },
		Sync:       func(disk.Pager) error { c.syncs++; return nil },
	}
}

// seededBuild seals recs through New's seed.
func seededBuild(t *testing.T, base Base, pageSize, flushEvery int, recs []record.Point) *seedCase {
	t.Helper()
	c := &seedCase{}
	tr, err := New(seedConfig(c, base, pageSize, flushEvery), slices.Clone(recs))
	if err != nil {
		t.Fatalf("New(seed of %d): %v", len(recs), err)
	}
	c.tr = tr
	return c
}

// insertedBuild is the reference: an empty tree, one WAL insert per
// record, one final flush — the state the seeded build must reproduce.
func insertedBuild(t *testing.T, base Base, pageSize, flushEvery int, recs []record.Point) *seedCase {
	t.Helper()
	c := &seedCase{}
	tr, err := New(seedConfig(c, base, pageSize, flushEvery), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, p := range recs {
		if err := tr.Insert(c.store, p); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
	}
	if _, err := tr.Flush(c.store); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	c.tr = tr
	return c
}

// answer runs one battery query and reports its sorted answer and the page
// reads it cost.
func (c *seedCase) answer(interval bool, q [2]int64) ([]record.Point, int64, error) {
	c.store.ResetStats()
	var got []record.Point
	var err error
	if interval {
		got, _, err = c.tr.AppendStab(c.store, nil, q[0])
	} else {
		got, _, err = c.tr.AppendQuery(c.store, nil, q[0], q[1])
	}
	return sortedCopy(got), c.store.Stats().Reads, err
}

// seedDiff reports how the seeded tree differs from the reference, nil
// when levels, counts, answers and per-query reads all match.
func seedDiff(got, want *seedCase, interval bool) error {
	if g, w := got.tr.LevelInfos(), want.tr.LevelInfos(); !slices.Equal(g, w) {
		return fmt.Errorf("LevelInfos = %+v, want %+v", g, w)
	}
	if g, w := got.tr.Len(), want.tr.Len(); g != w {
		return fmt.Errorf("Len = %d, want %d", g, w)
	}
	if g, w := got.tr.TombCount(), want.tr.TombCount(); g != w {
		return fmt.Errorf("TombCount = %d, want %d", g, w)
	}
	battery := [][2]int64{{-1 << 40, -1 << 40}, {0, 0}, {250, 400}, {700, 100}, {999, 999}, {-300, 350}, {1 << 40, 0}}
	for _, q := range battery {
		if interval {
			q[0] = q[1] // stab at q[1]
		}
		g, greads, gerr := got.answer(interval, q)
		w, wreads, werr := want.answer(interval, q)
		if gerr != nil || werr != nil {
			return fmt.Errorf("query %v: seeded err %v, reference err %v", q, gerr, werr)
		}
		if !slices.Equal(g, w) {
			return fmt.Errorf("query %v: %d records, want %d", q, len(g), len(w))
		}
		if greads != wreads {
			return fmt.Errorf("query %v: %d page reads, want %d", q, greads, wreads)
		}
	}
	return nil
}

// TestSeedMatchesInserts builds the same records both ways — sealed from
// New's seed, and inserted one WAL entry at a time then flushed — and
// requires the same levels, counts, answers and per-query reads, at sizes
// around the flush threshold F and at two page sizes.
func TestSeedMatchesInserts(t *testing.T) {
	const fe = 8
	for _, kind := range []byte{BaseTwoSided, BaseInterval} {
		base, err := BaseFor(kind)
		if err != nil {
			t.Fatal(err)
		}
		interval := kind == BaseInterval
		for _, ps := range []int{256, 4096} {
			for _, n := range []int{0, 1, fe - 1, fe, 5*fe + 3} {
				t.Run(fmt.Sprintf("%s/page%d/n%d", base.Name(), ps, n), func(t *testing.T) {
					recs := seedRecords(n, interval, rand.New(rand.NewSource(int64(n+ps))))
					got := seededBuild(t, base, ps, fe, recs)
					want := insertedBuild(t, base, ps, fe, recs)
					if err := seedDiff(got, want, interval); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestSeedCommitsOnce pins the seeded build's durability cost: one
// manifest commit, and no WAL fsync — the commit is the build's only
// barrier, at every size.
func TestSeedCommitsOnce(t *testing.T) {
	const fe = 8
	base, err := BaseFor(BaseTwoSided)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, fe - 1, fe, 5*fe + 3} {
		c := seededBuild(t, base, 256, fe, seedRecords(n, false, rand.New(rand.NewSource(int64(n)))))
		if c.commits != 1 || c.syncs != 0 {
			t.Errorf("n=%d: %d commits and %d WAL syncs, want 1 and 0", n, c.commits, c.syncs)
		}
		if c.tr.WALEntries() != 0 {
			t.Errorf("n=%d: %d WAL entries after the build, want 0", n, c.tr.WALEntries())
		}
	}
}

// TestSeedReopens reopens a seeded tree from its one committed manifest:
// the level, the count and the answers survive, and the tree keeps taking
// updates on top of the sealed seed.
func TestSeedReopens(t *testing.T) {
	base, err := BaseFor(BaseTwoSided)
	if err != nil {
		t.Fatal(err)
	}
	v := &volatileTree{store: disk.MustStore(256), base: base, fe: 8}
	recs := seedRecords(43, false, rand.New(rand.NewSource(5)))
	tr, err := New(v.config(), slices.Clone(recs))
	if err != nil {
		t.Fatal(err)
	}
	live := map[record.Point]bool{}
	for _, p := range recs {
		live[p] = true
	}
	re := v.reopen(t)
	if !slices.Equal(re.LevelInfos(), tr.LevelInfos()) || re.Len() != len(recs) {
		t.Fatalf("reopened %+v with Len %d, want %+v with Len %d", re.LevelInfos(), re.Len(), tr.LevelInfos(), len(recs))
	}
	checkQuery(t, re, v.store, live, 0, 0)
	p := pt(5000, 5000, 5000)
	if err := re.Insert(v.store, p); err != nil {
		t.Fatal(err)
	}
	if err := re.Delete(v.store, recs[0]); err != nil {
		t.Fatal(err)
	}
	live[p] = true
	delete(live, recs[0])
	checkQuery(t, re, v.store, live, -1<<40, -1<<40)
}

// TestSeedRefusesDuplicate refuses a seed holding one record twice, before
// any page is written, with an error naming the record.
func TestSeedRefusesDuplicate(t *testing.T) {
	base, err := BaseFor(BaseTwoSided)
	if err != nil {
		t.Fatal(err)
	}
	dup := pt(3, 4, 5)
	s := disk.MustStore(256)
	_, err = New(Config{Pager: s, Base: base}, []record.Point{dup, pt(1, 1, 1), dup})
	if err == nil || !strings.Contains(err.Error(), dup.String()) {
		t.Fatalf("New with %v twice: err = %v, want one naming the record", dup, err)
	}
	if s.NumPages() != 0 {
		t.Fatalf("refused build left %d pages", s.NumPages())
	}
	// Same X and Y under another ID is a distinct record.
	if _, err := New(Config{Pager: disk.MustStore(256), Base: base}, []record.Point{dup, pt(3, 4, 6)}); err != nil {
		t.Fatalf("New with distinct IDs: %v", err)
	}
}
