package skeletal

import (
	"encoding/binary"
	"testing"

	"pathcache/internal/disk"
)

// TestViewAliasSurvivesEviction pins down the zero-copy contract the query
// layers rely on when they retain Node.Payload without a defensive copy:
// a View's buffer is private and immutable, so a payload alias stays valid
// after the underlying page has been evicted from the buffer pool, reused
// for other data, and even overwritten in the store.
func TestViewAliasSurvivesEviction(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		const pageSize = 256
		s := disk.MustStore(pageSize)
		keys := make([]int64, 300)
		for i := range keys {
			keys[i] = int64(i) * 2
		}
		tr, err := Build(s, buildBST(keys), 8)
		if err != nil {
			t.Fatal(err)
		}

		// A pool small enough that any two descents evict each other.
		pool, err := disk.NewBufferPoolShards(s, 2, 1)
		if err != nil {
			t.Fatal(err)
		}

		// Descend to several targets through the pool, one walker each,
		// retaining the path nodes (whose payloads alias the walkers' view
		// buffers).
		var retained []Node
		for _, target := range []int64{0, 150, 298, 599} {
			w := new(Walker)
			w.Reset(tr, pool)
			path, err := w.Descend(tr.Root(), func(n Node) Dir {
				switch {
				case n.Key == target:
					return Stop
				case target < n.Key:
					return Left
				default:
					return Right
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			retained = append(retained, path...)
		}

		// Thrash the pool so every retained node's page is evicted, then
		// overwrite every tree page in the raw store. If any retained
		// payload aliased pool frames or shared store memory, it would
		// now read 0xDB garbage.
		junk := make([]byte, pageSize)
		for i := 0; i < 64; i++ {
			id, err := pool.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.Write(id, junk); err != nil {
				t.Fatal(err)
			}
			if err := pool.Read(id, junk); err != nil {
				t.Fatal(err)
			}
		}
		for j := range junk {
			junk[j] = 0xDB
		}
		for _, id := range tr.pages {
			if err := s.Write(id, junk); err != nil {
				t.Fatal(err)
			}
		}

		if len(retained) == 0 {
			t.Fatal("no nodes retained")
		}
		for _, n := range retained {
			if got := int64(binary.LittleEndian.Uint64(n.Payload)); got != n.Key {
				t.Fatalf("retained payload of node %v decodes to %d, want key %d (alias invalidated)",
					n.Ref, got, n.Key)
			}
		}
	})
}
