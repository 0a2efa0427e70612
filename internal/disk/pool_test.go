package disk

import (
	"math/rand"
	"sync"
	"testing"

	"pathcache/internal/race"
)

func TestDefaultShards(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {2, 1}, {8, 1}, {15, 1},
		{16, 2}, {32, 4}, {64, 8}, {128, 16},
		{1024, 16}, // capped at maxPoolShards
	}
	for _, c := range cases {
		if got := defaultShards(c.capacity); got != c.want {
			t.Errorf("defaultShards(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

func TestNewBufferPoolShardsValidation(t *testing.T) {
	s := MustStore(128)
	if _, err := NewBufferPoolShards(s, 8, 3); err == nil {
		t.Error("accepted non-power-of-two shard count")
	}
	if _, err := NewBufferPoolShards(s, 2, 4); err == nil {
		t.Error("accepted more shards than capacity")
	}
	if _, err := NewBufferPoolShards(s, 0, 1); err == nil {
		t.Error("accepted zero capacity")
	}
	p, err := NewBufferPoolShards(s, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	// Capacity splits exactly: 10 over 4 shards = 3+3+2+2.
	total := 0
	for i := range p.shards {
		total += p.shards[i].capacity
		if p.shards[i].capacity < 1 {
			t.Fatalf("shard %d has capacity %d", i, p.shards[i].capacity)
		}
	}
	if total != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", total)
	}
}

// poolTrace allocates nPages pages with distinct contents and returns a
// deterministic access trace over them.
func poolTrace(t *testing.T, s *Store, nPages, length int, seed int64) ([]PageID, []byte) {
	t.Helper()
	ids := make([]PageID, nPages)
	buf := make([]byte, s.PageSize())
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0], buf[1] = byte(i), byte(i>>8)
		if err := s.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	rng := rand.New(rand.NewSource(seed))
	trace := make([]PageID, length)
	for i := range trace {
		trace[i] = ids[rng.Intn(nPages)]
	}
	return trace, buf
}

// TestShardedPoolStatsExact replays the same access trace through the
// sharded pool once serially (8 sequential passes) and once with 8
// concurrent readers (one pass each), in the no-eviction regime. The summed
// shard counters must be identical in both runs — the accounting is
// deterministic even though the interleaving is not: each distinct page
// misses exactly once (the shard lock serializes the first touch) and every
// other access hits. Run with -race.
func TestShardedPoolStatsExact(t *testing.T) {
	const (
		nPages  = 200
		length  = 2048
		readers = 8
	)
	run := func(concurrent bool) PoolStats {
		s := MustStore(128)
		trace, _ := poolTrace(t, s, nPages, length, 99)
		p, err := NewBufferPoolShards(s, 256, 8)
		if err != nil {
			t.Fatal(err)
		}
		replay := func() {
			buf := make([]byte, 128)
			for _, id := range trace {
				if err := p.Read(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					replay()
				}()
			}
			wg.Wait()
		} else {
			for g := 0; g < readers; g++ {
				replay()
			}
		}
		// ShardStats must sum exactly to Stats once the pool is quiescent.
		var sum PoolStats
		for _, ss := range p.ShardStats() {
			sum = sum.Add(ss)
		}
		if sum != p.Stats() {
			t.Fatalf("ShardStats sum %+v != Stats %+v", sum, p.Stats())
		}
		return p.Stats()
	}

	serial := run(false)
	conc := run(true)
	if serial != conc {
		t.Fatalf("concurrent stats %+v != serial stats %+v", conc, serial)
	}
	distinct := map[PageID]bool{}
	s := MustStore(128)
	trace, _ := poolTrace(t, s, nPages, length, 99)
	for _, id := range trace {
		distinct[id] = true
	}
	wantMisses := int64(len(distinct))
	wantHits := int64(readers*length) - wantMisses
	if serial.Misses != wantMisses || serial.Hits != wantHits || serial.Evictions != 0 {
		t.Fatalf("stats %+v, want hits=%d misses=%d evictions=0", serial, wantHits, wantMisses)
	}
}

// Under eviction pressure the per-access interleaving changes which pages
// get evicted, but the accounting conservation laws hold exactly:
// hits+misses equals total accesses and misses-evictions equals the
// resident frame count. Run with -race.
func TestShardedPoolEvictionConservation(t *testing.T) {
	const (
		nPages  = 300
		length  = 1024
		readers = 8
	)
	s := MustStore(128)
	trace, _ := poolTrace(t, s, nPages, length, 7)
	p, err := NewBufferPoolShards(s, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			for _, id := range trace {
				if err := p.Read(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if got, want := st.Hits+st.Misses, int64(readers*length); got != want {
		t.Fatalf("hits+misses = %d, want %d accesses", got, want)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions with working set 300 > capacity 64")
	}
	if got, want := st.Misses-st.Evictions, int64(p.Len()); got != want {
		t.Fatalf("misses-evictions = %d, want %d resident frames", got, want)
	}
}

// Concurrent readers through the sharded pool must always observe the page
// bytes the store holds (reads are copies under the shard lock). Run with
// -race.
func TestShardedPoolReadConsistency(t *testing.T) {
	s := MustStore(128)
	trace, _ := poolTrace(t, s, 64, 512, 13)
	want := map[PageID][2]byte{}
	buf := make([]byte, 128)
	for _, id := range trace {
		if err := s.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		want[id] = [2]byte{buf[0], buf[1]}
	}
	p, err := NewBufferPoolShards(s, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			for _, id := range trace {
				if err := p.Read(id, buf); err != nil {
					t.Error(err)
					return
				}
				if w := want[id]; buf[0] != w[0] || buf[1] != w[1] {
					t.Errorf("page %d: got %d,%d want %d,%d", id, buf[0], buf[1], w[0], w[1])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Dirty pages written through different shards all land in the store after
// Flush, and Free on one shard never disturbs frames on another.
func TestShardedPoolWriteBackAndFree(t *testing.T) {
	s := MustStore(128)
	p, err := NewBufferPoolShards(s, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	buf := make([]byte, 128)
	for i := 0; i < 12; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		if err := p.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := s.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d: flushed byte %d, want %d", id, buf[0], i+1)
		}
	}
	// Re-warm the cache, free one page, and check the others still hit.
	for _, id := range ids {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for _, id := range ids[1:] {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Misses != 0 || st.Hits != int64(len(ids)-1) {
		t.Fatalf("after Free: %+v, want %d hits and no misses", st, len(ids)-1)
	}
}

// WriteBack puts every dirty frame in the store and keeps it resident and
// clean: the reads that follow all hit, and a second WriteBack writes
// nothing. Flush, by contrast, leaves the pool empty.
func TestPoolWriteBackKeepsFrames(t *testing.T) {
	s := MustStore(128)
	p, err := NewBufferPoolShards(s, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	buf := make([]byte, 128)
	for i := 0; i < 12; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		if err := p.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	w0 := s.Stats().Writes
	if err := p.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes - w0; got != int64(len(ids)) {
		t.Fatalf("WriteBack wrote %d pages, want %d", got, len(ids))
	}
	for i, id := range ids {
		if err := s.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d: written-back byte %d, want %d", id, buf[0], i+1)
		}
		if !p.Cached(id) {
			t.Fatalf("page %d left the pool on WriteBack", id)
		}
	}
	if p.Len() != len(ids) {
		t.Fatalf("Len = %d after WriteBack, want %d", p.Len(), len(ids))
	}
	w1 := s.Stats().Writes
	if err := p.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Writes - w1; got != 0 {
		t.Fatalf("second WriteBack wrote %d pages, want 0: frames stayed dirty", got)
	}
	p.ResetStats()
	r0 := s.Stats().Reads
	for _, id := range ids {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Hits != int64(len(ids)) || st.Misses != 0 || s.Stats().Reads != r0 {
		t.Fatalf("reads after WriteBack: %+v and %d store reads, want %d hits", st, s.Stats().Reads-r0, len(ids))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p.Cached(ids[0]) {
		t.Fatalf("Flush left %d frames resident", p.Len())
	}
}

// A miss into a full shard reuses the victim's frame: the evicted page's
// bytes never leak into the new one, a dirty victim is written back before
// its buffer is refilled, and the reused frame serves its new page.
func TestPoolFrameReuse(t *testing.T) {
	s := MustStore(128)
	p, err := NewBufferPoolShards(s, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if err := p.Write(id, buf); err != nil { // evicts dirty victims from i = 2
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			if err := p.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			for j, b := range buf {
				if b != byte(i+1) {
					t.Fatalf("round %d page %d byte %d = %d, want %d", round, id, j, b, i+1)
				}
			}
		}
	}
	st := p.Stats()
	if got, want := st.Misses-st.Evictions, int64(p.Len()); got != want || p.Len() != 2 {
		t.Fatalf("misses-evictions = %d, resident = %d; want equal and 2", got, p.Len())
	}
}

// TestPoolAllocs pins the pool's steady state: a hit, and a miss into a
// full shard (which reuses the victim's buffer and list element), allocate
// nothing.
func TestPoolAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	s := MustStore(128)
	ids := make([]PageID, 64)
	for i := range ids {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	p, err := NewBufferPoolShards(s, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	next := 0
	read := func() {
		if err := p.Read(ids[next], buf); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % len(ids)
	}
	for range ids { // fill the shard, then evict through it
		read()
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := p.Read(ids[len(ids)-1], buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("pool hit: %.1f allocs, want 0", got)
	}
	p.ResetStats()
	if got := testing.AllocsPerRun(200, read); got != 0 {
		t.Errorf("miss into a full shard: %.1f allocs, want 0", got)
	}
	if st := p.Stats(); st.Hits != 0 || st.Evictions != st.Misses {
		t.Fatalf("the miss loop hit or filled a free frame: %+v", st)
	}
	c := new(Counter)
	v := p.WithCounter(c)
	if got := testing.AllocsPerRun(200, func() {
		if err := v.Read(ids[next], buf); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % len(ids)
	}); got != 0 {
		t.Errorf("counted miss into a full shard: %.1f allocs, want 0", got)
	}
}
