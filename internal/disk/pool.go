package disk

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// PoolStats reports buffer-pool effectiveness.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Add returns the component-wise sum of s and o, used to fold per-shard
// counters into a pool-wide snapshot.
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
	}
}

// Sharding policy. A pool with enough frames is striped across up to
// maxPoolShards independent LRU shards so concurrent readers contend only
// when they touch pages that hash to the same shard. Small pools stay
// single-sharded: with fewer than minShardFrames frames per shard the split
// would distort eviction behaviour for no concurrency benefit, and the
// single-shard pool is byte-for-byte the classical global LRU the I/O
// experiments were calibrated against.
const (
	maxPoolShards  = 16
	minShardFrames = 8
)

// poolShard is one LRU stripe: its own lock, frame map and recency list.
// Counters are atomics so Stats can sum a consistent-enough snapshot without
// taking any shard lock.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// BufferPool is a write-back LRU page cache layered over a Store. It
// implements Pager, so structures can run either directly against the store
// (cold, worst-case I/O measurement) or through a pool (warm behaviour).
//
// The pool is lock-striped: frames are spread across power-of-two shards by
// a hash of the PageID, and each shard has its own mutex and LRU list, so
// concurrent readers scale instead of serializing on one lock. Capacity is
// split across shards; hit/miss/eviction accounting is kept per shard with
// atomics and summed exactly by Stats, which never blocks readers.
//
// BufferPool is safe for concurrent use. Accounting is deterministic in the
// no-eviction regime (every distinct page misses exactly once, every other
// access hits) regardless of goroutine interleaving; once shards evict, the
// conservation law hits+misses == accesses and misses-evictions-frees ==
// resident frames still holds exactly.
type BufferPool struct {
	store     Pager
	capacity  int
	shards    []poolShard
	shardBits uint // shard index = top shardBits bits of the mixed PageID
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
}

// NewBufferPool wraps a pager with an LRU cache of capacity pages, striped
// across an automatically chosen number of shards (1 for small pools, up to
// 16 as capacity grows past 8 frames per shard).
func NewBufferPool(store Pager, capacity int) (*BufferPool, error) {
	return NewBufferPoolShards(store, capacity, defaultShards(capacity))
}

// defaultShards picks the largest power-of-two shard count that keeps at
// least minShardFrames frames per shard, capped at maxPoolShards.
func defaultShards(capacity int) int {
	s := 1
	for s*2 <= maxPoolShards && capacity/(s*2) >= minShardFrames {
		s *= 2
	}
	return s
}

// NewBufferPoolShards wraps a pager with an LRU cache of capacity pages
// striped across exactly shards LRU shards. shards must be a power of two
// and no larger than capacity (every shard needs at least one frame).
func NewBufferPoolShards(store Pager, capacity, shards int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("disk: buffer pool capacity %d < 1", capacity)
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("disk: buffer pool shards %d not a power of two", shards)
	}
	if shards > capacity {
		return nil, fmt.Errorf("disk: buffer pool shards %d > capacity %d", shards, capacity)
	}
	bits := uint(0)
	for 1<<bits < shards {
		bits++
	}
	p := &BufferPool{
		store:     store,
		capacity:  capacity,
		shards:    make([]poolShard, shards),
		shardBits: bits,
	}
	base, extra := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		p.shards[i] = poolShard{
			capacity: c,
			frames:   make(map[PageID]*list.Element, c),
			lru:      list.New(),
		}
	}
	return p, nil
}

// shard returns the stripe owning id. Fibonacci multiplicative hashing mixes
// the dense, sequential PageIDs so neighbouring pages land on different
// shards; the top bits of the product are well distributed. A single-shard
// pool always maps to shard 0 (shifting a uint64 by 64 yields 0 in Go).
func (p *BufferPool) shard(id PageID) *poolShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &p.shards[h>>(64-p.shardBits)]
}

// PageSize reports the underlying store's page size.
func (p *BufferPool) PageSize() int { return p.store.PageSize() }

// NumShards reports how many LRU stripes the pool uses.
func (p *BufferPool) NumShards() int { return len(p.shards) }

// Alloc reserves a fresh page in the underlying store. The page is not
// brought into the cache until it is read or written.
func (p *BufferPool) Alloc() (PageID, error) { return p.store.Alloc() }

// Free drops any cached copy (discarding dirty data — the page is going
// away) and releases the page in the store.
func (p *BufferPool) Free(id PageID) error { return p.free(id, nil) }

func (p *BufferPool) free(id PageID, c *Counter) error {
	sh := p.shard(id)
	sh.mu.Lock()
	if el, ok := sh.frames[id]; ok {
		sh.lru.Remove(el)
		delete(sh.frames, id)
	}
	sh.mu.Unlock()
	if err := p.store.Free(id); err != nil {
		return err
	}
	c.addFree()
	return nil
}

// Read returns the page contents, from cache when possible.
func (p *BufferPool) Read(id PageID, buf []byte) error { return p.read(id, buf, nil) }

// read is the counted entry point: a hit is free for the operation, a miss
// attributes the store read (and any eviction write-back it forces) to c.
func (p *BufferPool) read(id PageID, buf []byte, c *Counter) error {
	if len(buf) < p.store.PageSize() {
		return ErrShortBuf
	}
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[id]; ok {
		sh.hits.Add(1)
		c.addHit()
		sh.lru.MoveToFront(el)
		copy(buf, el.Value.(*frame).data)
		return nil
	}
	sh.misses.Add(1)
	//pcvet:allow lockheldio(sh.mu.Lock) -- claim under the shard latch; eviction write-back is the sanctioned exception
	el, err := p.claim(sh, c)
	if err != nil {
		return err
	}
	f := el.Value.(*frame)
	// The miss fill runs under the shard latch on purpose: it is what makes
	// per-page accounting deterministic (a concurrent second reader of the
	// same page waits and then hits instead of double-missing), and only
	// this shard's pages wait behind it. The store checks the page's CRC
	// here, once; later hits copy the verified frame. See DESIGN.md,
	// "Statically-enforced invariants".
	//pcvet:allow lockheldio(sh.mu.Lock) -- sanctioned single-page miss fill under the shard latch
	if err := p.store.Read(id, f.data); err != nil {
		sh.lru.Remove(el)
		return err
	}
	c.addRead()
	f.id, f.dirty = id, false
	sh.frames[id] = el
	copy(buf, f.data)
	return nil
}

// Write updates the cached page, marking it dirty; the store is updated on
// eviction or Flush.
func (p *BufferPool) Write(id PageID, buf []byte) error { return p.write(id, buf, nil) }

func (p *BufferPool) write(id PageID, buf []byte, c *Counter) error {
	ps := p.store.PageSize()
	if len(buf) < ps {
		return ErrShortBuf
	}
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.frames[id]; ok {
		sh.hits.Add(1)
		c.addHit()
		sh.lru.MoveToFront(el)
		f := el.Value.(*frame)
		copy(f.data, buf[:ps])
		f.dirty = true
		return nil
	}
	sh.misses.Add(1)
	//pcvet:allow lockheldio(sh.mu.Lock) -- claim under the shard latch; eviction write-back is the sanctioned exception
	el, err := p.claim(sh, c)
	if err != nil {
		return err
	}
	f := el.Value.(*frame)
	copy(f.data, buf[:ps])
	f.id, f.dirty = id, true
	sh.frames[id] = el
	return nil
}

// WithCounter returns a Pager view of the pool that attributes the store
// transfers each access actually causes — miss fills and the eviction
// write-backs they force — to c. Cache hits are free for the operation.
// Many views over one pool may run concurrently; each transfer lands on
// exactly one counter, so per-operation counts sum to the store-level diff.
func (p *BufferPool) WithCounter(c *Counter) Pager { return &poolOpView{p: p, c: c} }

// poolOpView is the per-operation handle WithCounter returns.
type poolOpView struct {
	p *BufferPool
	c *Counter
}

func (v *poolOpView) PageSize() int { return v.p.PageSize() }

func (v *poolOpView) Alloc() (PageID, error) {
	id, err := v.p.store.Alloc()
	if err == nil {
		v.c.addAlloc()
	}
	return id, err
}

func (v *poolOpView) Free(id PageID) error { return v.p.free(id, v.c) }

func (v *poolOpView) Read(id PageID, buf []byte) error { return v.p.read(id, buf, v.c) }

func (v *poolOpView) Write(id PageID, buf []byte) error { return v.p.write(id, buf, v.c) }

// WriteBack is the pool's WriteBack charged to the view's counter: the
// operation that runs a durability barrier pays for the pages it puts in
// the store.
func (v *poolOpView) WriteBack() error { return v.p.writeBackAll(v.c) }

// claim returns the frame a miss in sh fills, at the front of the LRU list
// and not yet in the frame map; the caller sets its id and data and maps
// it, or removes the element if the fill fails. Below capacity the frame is
// new. In a full shard it is the LRU victim, whose buffer and list element
// are reused, so a steady-state miss allocates nothing. Caller holds sh.mu.
//
// A dirty victim is written back first; if that write fails (an injected
// fault, or a real device error once the store is a file) the victim stays
// resident and dirty — dropping the frame would lose the only up-to-date
// copy of the page — and the error propagates to the access that triggered
// the eviction. That access's counter c (may be nil) is charged for the
// write-back: the op that forces an eviction pays for it.
func (p *BufferPool) claim(sh *poolShard, c *Counter) (*list.Element, error) {
	if sh.lru.Len() < sh.capacity {
		return sh.lru.PushFront(&frame{data: make([]byte, p.store.PageSize())}), nil
	}
	victim := sh.lru.Back()
	vf := victim.Value.(*frame)
	if vf.dirty {
		// The eviction write-back runs under the shard latch the caller
		// holds, which keeps victim selection atomic; the callers' allows
		// excuse it, since lockheldio sees no lock taken here.
		if err := p.store.Write(vf.id, vf.data); err != nil {
			return nil, fmt.Errorf("disk: writing back page %d on eviction: %w", vf.id, err)
		}
		vf.dirty = false
		c.addWrite()
	}
	delete(sh.frames, vf.id)
	sh.evictions.Add(1)
	sh.lru.MoveToFront(victim)
	return victim, nil
}

// WriteBack writes every dirty frame to the store and keeps every frame
// resident: the durability barrier's half of the pool (Backend.Sync and
// ReplaceMeta call it before the fsync), which leaves the working set warm.
// Shards are written one at a time under their latch, so a reader never
// sees a store page older than the frame it replaced; callers should not
// run WriteBack concurrently with writes they expect it to cover.
func (p *BufferPool) WriteBack() error { return p.writeBackAll(nil) }

// writeBackAll is WriteBack charging every page it writes to c (may be
// nil).
func (p *BufferPool) writeBackAll(c *Counter) error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		//pcvet:allow lockheldio(sh.mu.Lock) -- WriteBack writes the shard under its latch so readers see written-back data, never stale store pages
		err := p.writeBack(sh, c)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush writes back every dirty frame and empties the cache, so subsequent
// reads are cold: how per-query worst-case I/O is measured, and what Close
// does. Each shard is written back and emptied under one latch hold, so no
// write lands between the two and is dropped. A barrier that only needs
// the data on disk calls WriteBack and keeps the pool warm.
func (p *BufferPool) Flush() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		//pcvet:allow lockheldio(sh.mu.Lock) -- Flush drains the shard under its latch so readers see written-back data, never stale store pages
		err := p.writeBack(sh, nil)
		if err == nil {
			sh.lru.Init()
			clear(sh.frames)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// writeBack writes sh's dirty frames to the store, marking each clean as it
// lands and charging it to c (may be nil). Caller holds sh.mu.
func (p *BufferPool) writeBack(sh *poolShard, c *Counter) error {
	for el := sh.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
		if f.dirty {
			if err := p.store.Write(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
			c.addWrite()
		}
	}
	return nil
}

// Cached reports whether page id is resident in the pool.
func (p *BufferPool) Cached(id PageID) bool {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[id]
	return ok
}

// Len reports the number of resident frames across all shards.
func (p *BufferPool) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the pool-wide hit/miss/eviction counters: the exact sum of
// the per-shard atomics. It takes no locks and never blocks readers.
func (p *BufferPool) Stats() PoolStats {
	var out PoolStats
	for i := range p.shards {
		out = out.Add(p.shards[i].snapshot())
	}
	return out
}

// ShardStats returns one counter snapshot per shard, in shard order. The
// slice sums exactly to Stats (when no accesses race the walk).
func (p *BufferPool) ShardStats() []PoolStats {
	out := make([]PoolStats, len(p.shards))
	for i := range p.shards {
		out[i] = p.shards[i].snapshot()
	}
	return out
}

func (sh *poolShard) snapshot() PoolStats {
	return PoolStats{
		Hits:      sh.hits.Load(),
		Misses:    sh.misses.Load(),
		Evictions: sh.evictions.Load(),
	}
}

// ResetStats zeroes the pool counters on every shard.
func (p *BufferPool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.hits.Store(0)
		sh.misses.Store(0)
		sh.evictions.Store(0)
	}
}
