package lsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// TestTombstonesCostNoReads pins that a query reads only its levels: the
// tombstones it filters are in memory, and their chain is a durable copy
// read at Open. A tomb-only flush leaves the levels alone and turns k
// memtable deletes into a chain of at least two pages, so every query must
// cost the same page reads, and return the same answer, before and after
// it. Charging the chain per query would add exactly its page count.
func TestTombstonesCostNoReads(t *testing.T) {
	for _, pageSize := range []int{256, 4096} {
		for _, kind := range []byte{BaseTwoSided, BaseInterval} {
			interval := kind == BaseInterval
			base, err := BaseFor(kind)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("page%d/%s", pageSize, base.Name()), func(t *testing.T) {
				k := 2*disk.ChainCap(pageSize, record.PointSize) + 1
				recs := seedRecords(4*k, interval, rand.New(rand.NewSource(11)))
				c := seededBuild(t, base, pageSize, 8*k, recs)
				for _, p := range recs[:k] {
					if err := c.tr.Delete(c.store, p); err != nil {
						t.Fatalf("Delete(%v): %v", p, err)
					}
				}
				battery := [][2]int64{{-1 << 40, -1 << 40}, {0, 0}, {250, 400}, {-300, 350}, {700, 100}, {999, 999}}
				type answer struct {
					recs  []record.Point
					reads int64
				}
				run := func() []answer {
					var out []answer
					for _, q := range battery {
						if interval {
							q[0] = q[1]
						}
						got, reads, err := c.answer(interval, q)
						if err != nil {
							t.Fatalf("query %v: %v", q, err)
						}
						out = append(out, answer{got, reads})
					}
					return out
				}
				levels := c.tr.LevelInfos()
				before := run()
				if slot, err := c.tr.Flush(c.store); err != nil || slot != -1 {
					t.Fatalf("tomb-only Flush = slot %d, %v; want -1, nil", slot, err)
				}
				if got := c.tr.LevelInfos(); !slices.Equal(got, levels) {
					t.Fatalf("tomb-only flush moved the levels: %+v, want %+v", got, levels)
				}
				if c.tr.TombCount() != k || c.tr.tombPg < 2 {
					t.Fatalf("setup: %d tombstones in a %d-page chain; want %d in at least 2", c.tr.TombCount(), c.tr.tombPg, k)
				}
				after := run()
				for i, q := range battery {
					if !slices.Equal(after[i].recs, before[i].recs) || after[i].reads != before[i].reads {
						t.Errorf("query %v: %d records in %d reads after the flush, %d in %d before (tombstone chain: %d pages)",
							q, len(after[i].recs), after[i].reads, len(before[i].recs), before[i].reads, c.tr.tombPg)
					}
				}
			})
		}
	}
}
