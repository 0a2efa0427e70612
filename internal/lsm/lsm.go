package lsm

import (
	"errors"
	"fmt"
	"sync"

	"pathcache/internal/disk"
	"pathcache/internal/obs"
	"pathcache/internal/record"
)

// WAL entry encoding: one op byte, seven bytes of padding, then the
// fixed-width point — 32 bytes, so the entry capacity of a WAL page is
// ChainCap(pageSize, entrySize).
const entrySize = 8 + record.PointSize

const (
	opInsert byte = 1
	opDelete byte = 2
)

// Config wires a Tree to its environment.
type Config struct {
	// Pager is the store the tree lives on; used for recovery reads, WAL
	// creation and any operation invoked without an explicit pager view.
	Pager disk.Pager
	// Base seals and reopens the static levels.
	Base Base
	// FlushEvery is the number of WAL entries that triggers a memtable
	// flush; zero selects DefaultFlushEvery.
	FlushEvery int
	// Sync is the durability barrier run after every acknowledged WAL
	// append (engine.Backend.Sync for file-backed trees); nil means none.
	// It is handed the pager the update wrote through, so the barrier's
	// own transfers are charged to the same operation.
	Sync func(p disk.Pager) error
	// Commit atomically installs a new manifest-pointing metadata blob
	// (engine.Backend.ReplaceMeta for file-backed trees); nil means the
	// tree is volatile. Commit must be durable when it returns. Like Sync
	// it is handed the committing operation's pager.
	Commit func(p disk.Pager, blob []byte) error
}

// DefaultFlushEvery is the memtable capacity when Config.FlushEvery is 0.
const DefaultFlushEvery = 64

// levelState is one sealed level: the reopened static structure plus the
// sidecars the manifest tracks for it. Immutable once built — compactions
// replace whole levelState values when they publish a version, so readers
// never observe a level mutating.
type levelState struct {
	slot       int
	n          int
	tree       LevelTree
	dataHead   disk.PageID
	dataPages  []disk.PageID
	treePages  []disk.PageID
	bloomHead  disk.PageID
	bloomBits  uint64
	bloomPages int
	bloom      *bloom
}

// LevelInfo is the public per-level summary (pcindex info).
type LevelInfo struct {
	Slot       int
	Records    int
	TreePages  int
	DataPages  int
	BloomPages int
}

// Tree is the write tier: a WAL-backed memtable over sealed static levels.
//
// Two locks split the writer's work from what readers see. wmu serializes
// the writers — updates, Flush and Compact — and is held across their
// I/O: the WAL append and its fsync, a level build, a manifest commit. mu
// guards only the published version (levels, tombstones, memtable,
// counts); a writer takes it exclusively just to fold a durable WAL entry
// into the memtable or to swap in a committed version, never across I/O.
// Queries hold mu's read side for their whole run, so they never wait on
// an fsync or a level build, and a version's superseded pages are freed
// only after the swap, when no reader can still reach them. Writers read
// the version's fields without mu: only a writer changes them, and it
// holds wmu.
type Tree struct {
	cfg        Config
	b          int // page capacity in points
	flushEvery int

	wmu          sync.Mutex
	wal          *disk.ChainAppender // guarded by wmu
	manifestHead disk.PageID         // guarded by wmu

	mu sync.RWMutex
	// mem is the memtable's net effect per record; memIns holds its live
	// inserts contiguously (mem[pt].at indexes them), so a query scans a
	// slice instead of ranging over the map.
	mem    map[record.Point]memEntry
	memIns []record.Point
	memOps int // raw WAL entries since the last flush
	// levels and tombs are published copy-on-write: a writer holding only
	// wmu builds the next version beside the one readers under mu.RLock
	// are reading, so it must build a fresh value and install it wholesale
	// under mu — never mutate in place. pcvet's snapshotimmutable analyzer
	// enforces this.
	//pcvet:snapshot
	levels []*levelState
	// tombs is the only representation queries read; the chain at tombHead
	// (tombPg pages) is its durable copy, read once by Open and rewritten by
	// every flush and compaction, the way the WAL is the memtable's.
	//pcvet:snapshot
	tombs    map[record.Point]bool
	tombHead disk.PageID
	tombPg   int
	n        int    // live records including the memtable's net effect
	flushedN int    // live records excluding the memtable (manifest liveN)
	seq      uint64 // manifest sequence, bumped by every flush/compaction
}

// memEntry is one record's net memtable effect: d is +1 for a pending
// insert, -1 for a pending delete; at is the insert's index in memIns
// while d > 0.
type memEntry struct {
	d, at int
}

// Version is the shape of the published version one read ran on: its live
// record count and occupied levels, read under the same lock as the
// answer, so the read's bound is evaluated for the structure it actually
// searched.
type Version struct {
	N, Levels int
}

// New creates a tree holding seed and commits its first manifest. The seed
// is sealed the way a static kind is built: sorted once (in place) and
// written through buildLevel into slot 0 — the level a flush of the same
// records would seal — at O(n/B) page writes, then one manifest commit.
// No WAL entry, memtable fold or flush is spent on it, so the build is
// all-or-nothing: a crash before the commit leaves no manifest at all, one
// after it the whole seed. Records are unique by their full (X, Y, ID)
// triple; a seed holding one twice is refused before any I/O. An empty
// seed commits an empty manifest, so a crash right after creation still
// recovers a valid empty index.
func New(cfg Config, seed []record.Point) (*Tree, error) {
	t, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	record.SortXYID(seed, nil)
	for i := 1; i < len(seed); i++ {
		if seed[i] == seed[i-1] {
			return nil, fmt.Errorf("lsm: seed holds record %v twice; records must be unique by (X, Y, ID)", seed[i])
		}
	}
	p := cfg.Pager
	if len(seed) > 0 {
		lv, err := buildLevel(p, cfg.Base, 0, seed)
		if err != nil {
			return nil, err
		}
		t.levels = []*levelState{lv}
		t.n, t.flushedN = len(seed), len(seed)
	}
	wal, err := disk.NewChainAppender(p, entrySize)
	if err != nil {
		return nil, fmt.Errorf("lsm: creating WAL: %w", err)
	}
	t.wal = wal
	head, blob, err := writeManifest(p, t.manifest())
	if err != nil {
		return nil, err
	}
	if err := t.commit(p, blob); err != nil {
		return nil, err
	}
	t.manifestHead = head
	return t, nil
}

// Open recovers a tree from the engine metadata blob: read and verify the
// manifest, reopen every sealed level and its bloom filter, load the
// tombstone set, and replay the WAL into the memtable. A replayed memtable
// at or past the flush threshold is flushed by the next update, not here —
// recovery performs no writes.
func Open(cfg Config, blob []byte) (*Tree, error) {
	t, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	p := cfg.Pager
	m, head, err := readManifest(p, blob)
	if err != nil {
		return nil, err
	}
	if m.baseKind != cfg.Base.Kind() {
		return nil, fmt.Errorf("lsm: file base kind %d, configured base %q is kind %d", m.baseKind, cfg.Base.Name(), cfg.Base.Kind())
	}
	if m.flushEvery >= 1 && cfg.FlushEvery == 0 {
		t.flushEvery = int(m.flushEvery)
	}
	t.manifestHead = head
	t.seq = m.seq
	t.flushedN = int(m.liveN)
	t.n = t.flushedN
	var levels []*levelState
	for _, lr := range m.levels {
		lv, err := reopenLevel(p, cfg.Base, lr)
		if err != nil {
			return nil, err
		}
		for len(levels) <= lv.slot {
			levels = append(levels, nil)
		}
		if levels[lv.slot] != nil {
			return nil, fmt.Errorf("lsm: manifest names slot %d twice: %w", lv.slot, disk.ErrCorrupt)
		}
		levels[lv.slot] = lv
	}
	t.levels = levels
	t.tombHead, t.tombPg = m.tombHead, int(m.tombPages)
	tombs, err := readTombChain(p, m.tombHead, int(m.tombCount), t.tombPg)
	if err != nil {
		return nil, fmt.Errorf("lsm: reading tombstone chain: %w", err)
	}
	t.tombs = tombs
	wal, err := disk.OpenChainAppender(p, entrySize, m.walHead)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopening WAL: %w", err)
	}
	t.wal = wal
	if err := t.replayWAL(p, m.walHead); err != nil {
		return nil, err
	}
	return t, nil
}

func prepare(cfg Config) (*Tree, error) {
	if cfg.Pager == nil || cfg.Base == nil {
		return nil, errors.New("lsm: config needs a pager and a base")
	}
	b := disk.ChainCap(cfg.Pager.PageSize(), record.PointSize)
	if b < 2 {
		return nil, fmt.Errorf("lsm: page size %d holds %d points; need >= 2", cfg.Pager.PageSize(), b)
	}
	if cfg.FlushEvery < 0 {
		return nil, fmt.Errorf("lsm: negative FlushEvery %d", cfg.FlushEvery)
	}
	fe := cfg.FlushEvery
	if fe == 0 {
		fe = DefaultFlushEvery
	}
	return &Tree{
		cfg:        cfg,
		b:          b,
		flushEvery: fe,
		mem:        map[record.Point]memEntry{},
		tombs:      map[record.Point]bool{},
		tombHead:   disk.InvalidPage,
	}, nil
}

// reopenLevel rebuilds one levelState from its manifest record.
func reopenLevel(p disk.Pager, base Base, lr levelRecord) (*levelState, error) {
	tree, err := base.Reopen(p, lr.treeMeta)
	if err != nil {
		return nil, err
	}
	bl, err := readBloom(p, lr.bloomHead, lr.bloomBits)
	if err != nil {
		return nil, err
	}
	return &levelState{
		slot:       int(lr.slot),
		n:          int(lr.n),
		tree:       tree,
		dataHead:   lr.dataHead,
		dataPages:  lr.dataPages,
		treePages:  lr.treePages,
		bloomHead:  lr.bloomHead,
		bloomBits:  lr.bloomBits,
		bloomPages: disk.BlobPages(p.PageSize(), int(lr.bloomBits/8)),
		bloom:      bl,
	}, nil
}

// replayWAL applies the persisted WAL to the memtable.
func (t *Tree) replayWAL(p disk.Pager, head disk.PageID) error {
	var replayErr error
	_, err := disk.ScanChain(p, entrySize, head, func(rec []byte) bool {
		op := rec[0]
		pt := record.DecodePoint(rec[8:])
		switch op {
		case opInsert:
			t.applyMem(pt, +1)
		case opDelete:
			t.applyMem(pt, -1)
		default:
			replayErr = fmt.Errorf("lsm: WAL entry with op byte %d: %w", op, disk.ErrCorrupt)
			return false
		}
		t.memOps++
		return true
	})
	if err != nil {
		return fmt.Errorf("lsm: replaying WAL: %w", err)
	}
	return replayErr
}

// applyMem folds one update into the memtable's net-effect map and keeps
// memIns in step with it. Records are unique (an insert of a
// record currently live elsewhere is the caller's contract violation), so
// an insert and a delete of the same record cancel regardless of order.
func (t *Tree) applyMem(pt record.Point, d int) {
	e := t.mem[pt]
	before := e.d
	e.d += d
	switch {
	case before <= 0 && e.d > 0:
		e.at = len(t.memIns)
		t.memIns = append(t.memIns, pt)
	case before > 0 && e.d <= 0:
		t.dropIns(e.at)
	}
	if e.d == 0 {
		delete(t.mem, pt)
	} else {
		t.mem[pt] = e
	}
	t.n += d
}

// dropIns removes memIns[i] by moving the last insert into its place.
func (t *Tree) dropIns(i int) {
	last := len(t.memIns) - 1
	if i != last {
		moved := t.memIns[last]
		t.memIns[i] = moved
		e := t.mem[moved]
		e.at = i
		t.mem[moved] = e
	}
	t.memIns = t.memIns[:last]
}

// manifest snapshots the tree's durable state (caller holds wmu or has
// exclusive access).
func (t *Tree) manifest() *manifest {
	m := &manifest{
		baseKind:   t.cfg.Base.Kind(),
		seq:        t.seq,
		liveN:      uint64(t.flushedN),
		flushEvery: uint32(t.flushEvery),
		walHead:    t.wal.Head(),
		tombHead:   t.tombHead,
		tombCount:  uint32(len(t.tombs)),
		tombPages:  uint32(t.tombPg),
	}
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		m.levels = append(m.levels, lv.record())
	}
	return m
}

// record is the level's manifest descriptor.
func (lv *levelState) record() levelRecord {
	return levelRecord{
		slot:      uint32(lv.slot),
		n:         uint64(lv.n),
		dataHead:  lv.dataHead,
		dataPages: lv.dataPages,
		treePages: lv.treePages,
		bloomHead: lv.bloomHead,
		bloomBits: lv.bloomBits,
		treeMeta:  lv.tree.EncodeMeta(),
	}
}

func (t *Tree) commit(p disk.Pager, blob []byte) error {
	if t.cfg.Commit == nil {
		return nil
	}
	if err := t.cfg.Commit(p, blob); err != nil {
		return fmt.Errorf("lsm: committing manifest: %w", err)
	}
	return nil
}

func (t *Tree) sync(p disk.Pager) error {
	if t.cfg.Sync == nil {
		return nil
	}
	if err := t.cfg.Sync(p); err != nil {
		return fmt.Errorf("lsm: syncing WAL: %w", err)
	}
	return nil
}

// Insert appends an insert to the WAL (durable before return) and folds it
// into the memtable. The caller is responsible for flushing when NeedsFlush
// reports true — typically right after, under its own metric op.
func (t *Tree) Insert(p disk.Pager, pt record.Point) error {
	return t.update(p, opInsert, pt)
}

// Delete appends a delete. Deleting a record not currently live is the
// caller's contract violation (blind deletes corrupt the live count).
func (t *Tree) Delete(p disk.Pager, pt record.Point) error {
	return t.update(p, opDelete, pt)
}

// update appends and fsyncs under the writer lock alone; readers keep
// answering from the published version until the durable entry is folded
// into the memtable under mu.
func (t *Tree) update(p disk.Pager, op byte, pt record.Point) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	var rec [entrySize]byte
	rec[0] = op
	pt.Encode(rec[8:])
	//pcvet:allow lockheldio(t.wmu.Lock) -- the WAL append is the update; readers never wait on wmu
	if err := t.wal.Append(p, rec[:]); err != nil {
		return fmt.Errorf("lsm: appending to WAL: %w", err)
	}
	//pcvet:allow lockheldio(t.wmu.Lock) -- the fsync before the ack is the update's durability; readers never wait on wmu
	if err := t.sync(p); err != nil {
		return err
	}
	// The entry is durable: fold it into the memtable mirror.
	d := -1
	if op == opInsert {
		d = +1
	}
	t.mu.Lock()
	t.applyMem(pt, d)
	t.memOps++
	t.mu.Unlock()
	return nil
}

// NeedsFlush reports whether the memtable has reached the flush threshold.
func (t *Tree) NeedsFlush() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.memOps >= t.flushEvery
}

// NeedsCompact reports whether tombstones reach the cap
// B·PathLen(max(n, B), B) = B·(⌈log_B max(n, B)⌉ + 1). Queries read no
// tombstone page — they filter from the in-memory map — so the cap bounds
// that map's memory (at B = 170 and n = 20,000, 510 records of 24 bytes)
// and the tombstoned records the levels return only to be filtered out.
func (t *Tree) NeedsCompact() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tombs) >= t.tombCap()
}

// TombCap reports the tombstone count that triggers a compaction at the
// current size.
func (t *Tree) TombCap() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tombCap()
}

func (t *Tree) tombCap() int { return t.b * obs.PathLen(max(t.n, t.b), t.b) }

// NextFlushSlot predicts the slot the next flush seals into — the first
// unoccupied level, since a flush cascade merges the whole occupied prefix.
func (t *Tree) NextFlushSlot() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextSlotLocked()
}

func (t *Tree) nextSlotLocked() int {
	slot := 0
	for slot < len(t.levels) && t.levels[slot] != nil {
		slot++
	}
	return slot
}

// CompactDest predicts the slot a compaction rebuilds into: the smallest
// level whose capacity FlushEvery·2^slot holds every live record.
func (t *Tree) CompactDest() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot := 0
	for c := t.flushEvery; c < t.n; c *= 2 {
		slot++
	}
	return slot
}

// Flush seals the memtable into a static level (no-op when the memtable is
// empty and the tombstone chain is current), returning the sealed slot or
// -1 when nothing was flushed. All I/O routes through p.
func (t *Tree) Flush(p disk.Pager) (int, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.memOps == 0 {
		return -1, nil
	}
	//pcvet:allow lockheldio(t.wmu.Lock) -- the level build runs outside mu and swaps under it; readers never wait on wmu
	return t.flushLocked(p)
}

// oldResources collects everything a committed manifest no longer
// references, freed strictly after the commit point (Free destroys page
// content, so freeing early would corrupt the previous state).
type oldResources struct {
	chains []disk.PageID
	levels []*levelState
}

func (t *Tree) freeOld(p disk.Pager, old oldResources) error {
	for _, head := range old.chains {
		if head == disk.InvalidPage {
			continue
		}
		if err := disk.FreeChain(p, head); err != nil {
			return fmt.Errorf("lsm: freeing superseded chain: %w", err)
		}
	}
	for _, lv := range old.levels {
		if err := freeLevel(p, lv); err != nil {
			return err
		}
	}
	return nil
}

func freeLevel(p disk.Pager, lv *levelState) error {
	if err := disk.FreeChain(p, lv.dataHead); err != nil {
		return fmt.Errorf("lsm: freeing level %d data chain: %w", lv.slot, err)
	}
	if lv.bloomHead != disk.InvalidPage {
		if err := disk.FreeChain(p, lv.bloomHead); err != nil {
			return fmt.Errorf("lsm: freeing level %d bloom chain: %w", lv.slot, err)
		}
	}
	for _, id := range lv.treePages {
		if err := p.Free(id); err != nil {
			return fmt.Errorf("lsm: freeing level %d tree page %d: %w", lv.slot, id, err)
		}
	}
	return nil
}

// buildLevel seals pts (sorted) into a fresh level at slot: static tree
// (pages tracked for later wholesale free), sorted data chain (compaction
// and membership probes read it), and bloom filter.
func buildLevel(p disk.Pager, base Base, slot int, pts []record.Point) (*levelState, error) {
	tracked := disk.Track(p)
	tree, err := base.Build(tracked, pts)
	if err != nil {
		return nil, err
	}
	w, err := disk.NewChainWriter(p, record.PointSize)
	if err != nil {
		return nil, fmt.Errorf("lsm: starting level %d data chain: %w", slot, err)
	}
	bl := newBloom(len(pts))
	var rec [record.PointSize]byte
	for _, pt := range pts {
		pt.Encode(rec[:])
		if err := w.Append(rec[:]); err != nil {
			return nil, fmt.Errorf("lsm: writing level %d data chain: %w", slot, err)
		}
		bl.addPoint(pt)
	}
	dataHead, _, _, err := w.Close()
	if err != nil {
		return nil, fmt.Errorf("lsm: sealing level %d data chain: %w", slot, err)
	}
	bloomHead, bloomPages, err := writeBloom(p, bl)
	if err != nil {
		return nil, err
	}
	return &levelState{
		slot:       slot,
		n:          len(pts),
		tree:       tree,
		dataHead:   dataHead,
		dataPages:  append([]disk.PageID(nil), w.Pages()...),
		treePages:  append([]disk.PageID(nil), tracked.Allocated()...),
		bloomHead:  bloomHead,
		bloomBits:  bl.nbits,
		bloomPages: bloomPages,
		bloom:      bl,
	}, nil
}

// levelRecords reads a level's record set back from its data chain.
func levelRecords(p disk.Pager, lv *levelState) ([]record.Point, error) {
	out := make([]record.Point, 0, lv.n)
	_, err := disk.ScanChain(p, record.PointSize, lv.dataHead, func(rec []byte) bool {
		out = append(out, record.DecodePoint(rec))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("lsm: reading level %d data chain: %w", lv.slot, err)
	}
	return out, nil
}

// flushLocked seals the memtable: partition its net effect into live
// inserts and new tombstones, cascade-merge the occupied level prefix
// (Bentley–Saxe), rewrite the tombstone chain, start a fresh WAL, write
// and commit the new manifest, swap the new version in, and only then free
// what the old manifest referenced. A crash anywhere before the commit
// recovers the old state with a full WAL replay; after it, the new state
// with an empty WAL. The caller holds wmu, so the memtable and levels it
// reads cannot change; readers keep answering from them under mu until
// the swap.
func (t *Tree) flushLocked(p disk.Pager) (int, error) {
	newTombs := make(map[record.Point]bool, len(t.tombs))
	for pt := range t.tombs {
		newTombs[pt] = true
	}
	for pt, e := range t.mem {
		if e.d < 0 {
			newTombs[pt] = true
		}
	}
	var adds []record.Point
	for _, pt := range t.memIns {
		if t.tombs[pt] {
			// Re-insert of a tombstoned record: cancel the tombstone, the
			// identical sealed copy revives.
			delete(newTombs, pt)
			continue
		}
		adds = append(adds, pt)
	}

	// A tomb-only flush (every entry was a delete, or inserts canceled out)
	// leaves the sealed levels alone: only the tombstone chain and WAL turn
	// over. Otherwise cascade-merge the occupied prefix with the new records.
	var old oldResources
	var sealed *levelState
	slot := -1
	if len(adds) > 0 {
		carry := adds
		slot = 0
		for slot < len(t.levels) && t.levels[slot] != nil {
			recs, err := levelRecords(p, t.levels[slot])
			if err != nil {
				return 0, err
			}
			carry = append(carry, recs...)
			old.levels = append(old.levels, t.levels[slot])
			slot++
		}
		record.SortXYID(carry, nil)
		var err error
		sealed, err = buildLevel(p, t.cfg.Base, slot, carry)
		if err != nil {
			return 0, err
		}
	}

	tombHead, tombPages, err := writeTombChain(p, newTombs)
	if err != nil {
		return 0, fmt.Errorf("lsm: writing tombstone chain: %w", err)
	}
	wal, err := disk.NewChainAppender(p, entrySize)
	if err != nil {
		return 0, fmt.Errorf("lsm: starting fresh WAL: %w", err)
	}

	// Assemble the post-flush state on the side (copy-on-write: concurrent
	// snapshot readers keep the old slice).
	levels := make([]*levelState, len(t.levels))
	copy(levels, t.levels)
	if sealed != nil {
		for i := 0; i < slot; i++ {
			levels[i] = nil
		}
		for len(levels) <= slot {
			levels = append(levels, nil)
		}
		levels[slot] = sealed
	}

	next := &manifest{
		baseKind:   t.cfg.Base.Kind(),
		seq:        t.seq + 1,
		liveN:      uint64(t.n),
		flushEvery: uint32(t.flushEvery),
		walHead:    wal.Head(),
		tombHead:   tombHead,
		tombCount:  uint32(len(newTombs)),
		tombPages:  uint32(tombPages),
	}
	for _, lv := range levels {
		if lv == nil {
			continue
		}
		next.levels = append(next.levels, lv.record())
	}
	mHead, blob, err := writeManifest(p, next)
	if err != nil {
		return 0, err
	}
	if err := t.commit(p, blob); err != nil {
		return 0, err // nothing swapped: the old state stays live
	}

	old.chains = append(old.chains, t.manifestHead, t.wal.Head(), t.tombHead)
	t.manifestHead = mHead
	t.wal = wal
	t.mu.Lock()
	t.levels = levels
	clear(t.mem)
	t.memIns = t.memIns[:0]
	t.memOps = 0
	t.tombs = newTombs
	t.tombHead, t.tombPg = tombHead, tombPages
	t.flushedN = t.n
	t.seq++
	t.mu.Unlock()
	if err := t.freeOld(p, old); err != nil {
		return slot, err
	}
	return slot, nil
}

// Compact rebuilds every sealed level into one tombstone-free level (the
// full rebuild logmethod triggers when tombstones hit their cap) and clears
// the tombstone set. The memtable and WAL are untouched. Readers keep
// answering from the old levels until the rebuilt one is swapped in.
func (t *Tree) Compact(p disk.Pager) (int, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	//pcvet:allow lockheldio(t.wmu.Lock) -- reads the published levels, which only a writer replaces; readers never wait on wmu
	live, old, err := t.gatherLive(p, t.levels, t.tombs)
	if err != nil {
		return 0, err
	}
	//pcvet:allow lockheldio(t.wmu.Lock) -- builds the new level outside mu; readers never wait on wmu
	slot, sealed, err := t.sealCompacted(p, live)
	if err != nil {
		return 0, err
	}
	//pcvet:allow lockheldio(t.wmu.Lock) -- commits and swaps under mu, then frees; readers never wait on wmu
	return t.commitCompactLocked(p, slot, sealed, old)
}

// gatherLive reads every record of the given levels, dropping tombstoned
// ones.
func (t *Tree) gatherLive(p disk.Pager, levels []*levelState, tombs map[record.Point]bool) ([]record.Point, oldResources, error) {
	var live []record.Point
	var old oldResources
	for _, lv := range levels {
		if lv == nil {
			continue
		}
		recs, err := levelRecords(p, lv)
		if err != nil {
			return nil, oldResources{}, err
		}
		for _, pt := range recs {
			if !tombs[pt] {
				live = append(live, pt)
			}
		}
		old.levels = append(old.levels, lv)
	}
	record.SortXYID(live, nil)
	return live, old, nil
}

// sealCompacted builds the one level a compaction rebuilds live into: the
// smallest slot whose capacity FlushEvery·2^slot holds every record, and
// no level at all when live is empty.
func (t *Tree) sealCompacted(p disk.Pager, live []record.Point) (int, *levelState, error) {
	slot := 0
	for c := t.flushEvery; c < len(live); c *= 2 {
		slot++
	}
	if len(live) == 0 {
		return slot, nil, nil
	}
	sealed, err := buildLevel(p, t.cfg.Base, slot, live)
	if err != nil {
		return 0, nil, err
	}
	return slot, sealed, nil
}

// commitCompactLocked commits the manifest naming sealed as the only level
// and no tombstones, swaps that version in, and frees the old levels and
// tombstone chain. Caller holds wmu.
func (t *Tree) commitCompactLocked(p disk.Pager, slot int, sealed *levelState, old oldResources) (int, error) {
	levels := make([]*levelState, slot+1)
	next := &manifest{
		baseKind:   t.cfg.Base.Kind(),
		seq:        t.seq + 1,
		liveN:      uint64(t.flushedN),
		flushEvery: uint32(t.flushEvery),
		walHead:    t.wal.Head(),
		tombHead:   disk.InvalidPage,
	}
	if sealed != nil {
		levels[slot] = sealed
		next.levels = append(next.levels, sealed.record())
	}
	mHead, blob, err := writeManifest(p, next)
	if err != nil {
		return 0, err
	}
	if err := t.commit(p, blob); err != nil {
		return 0, err
	}
	old.chains = append(old.chains, t.manifestHead, t.tombHead)
	t.manifestHead = mHead
	t.mu.Lock()
	t.levels = levels
	t.tombs = map[record.Point]bool{}
	t.tombHead, t.tombPg = disk.InvalidPage, 0
	t.seq++
	t.mu.Unlock()
	if err := t.freeOld(p, old); err != nil {
		return slot, err
	}
	return slot, nil
}

// AppendQuery appends the answer to the 2-sided query {x >= a, y >= b} to
// dst and reports the version it ran on: every sealed level appends its
// answer (the Bentley–Saxe per-level tax), tombstones and pending memtable
// deletes are filtered out in one pass, and the memtable contributes its
// pending inserts. Tombstones and memtable are working memory, like a
// query's path pages: their durable copies (the tombstone chain and the
// WAL) are read at Open, never per query, so the levels' pages are the
// only pages a query reads.
func (t *Tree) AppendQuery(p disk.Pager, dst []record.Point, a, b int64) ([]record.Point, Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	//pcvet:allow lockheldio(t.mu.RLock) -- readers hold the read side for the whole query so no level is freed under them; writers take the write side only to swap
	return t.appendLocked(p, dst, a, b, false)
}

// AppendStab appends the answer to the stabbing query at q over the
// diagonal-corner encoding — which stored intervals [-X, Y] contain q —
// to dst and reports the version it ran on.
func (t *Tree) AppendStab(p disk.Pager, dst []record.Point, q int64) ([]record.Point, Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	//pcvet:allow lockheldio(t.mu.RLock) -- readers hold the read side for the whole query so no level is freed under them; writers take the write side only to swap
	return t.appendLocked(p, dst, -q, q, true)
}

// appendLocked answers {x >= a, y >= b} under the read lock. With stab
// set, a = -q and b = q, and each level answers its own stabbing query at
// q: the same predicate under the diagonal-corner encoding.
func (t *Tree) appendLocked(p disk.Pager, dst []record.Point, a, b int64, stab bool) ([]record.Point, Version, error) {
	v := Version{N: t.n}
	out := dst
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		v.Levels++
		var err error
		if stab {
			out, err = lv.tree.AppendStab(p, out, b)
		} else {
			out, err = lv.tree.AppendQuery(p, out, a, b)
		}
		if err != nil {
			return dst, v, fmt.Errorf("lsm: level %d: %w", lv.slot, err)
		}
	}
	keep := len(dst)
	for _, pt := range out[len(dst):] {
		if t.tombs[pt] || t.mem[pt].d < 0 {
			continue
		}
		out[keep] = pt
		keep++
	}
	out = out[:keep]
	for _, pt := range t.memIns {
		if pt.X >= a && pt.Y >= b {
			out = append(out, pt)
		}
	}
	return out, v, nil
}

// Has is the point-membership probe the per-level bloom filters serve: a
// record absent from the tree costs zero page reads per level with ~99%
// probability (the filters are in memory); a present or false-positive
// record costs a binary search over that level's sorted data chain. It
// reports the version it ran on, as AppendQuery does.
func (t *Tree) Has(p disk.Pager, pt record.Point) (bool, Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := Version{N: t.n, Levels: t.levelsLocked()}
	if e, ok := t.mem[pt]; ok {
		return e.d > 0, v, nil
	}
	if t.tombs[pt] {
		return false, v, nil
	}
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		if !lv.bloom.mayPoint(pt) {
			continue
		}
		//pcvet:allow lockheldio(t.mu.RLock) -- readers hold the read side for the whole query so no level is freed under them; writers take the write side only to swap
		found, err := searchData(p, lv, pt)
		if err != nil {
			return false, v, err
		}
		if found {
			return true, v, nil
		}
	}
	return false, v, nil
}

// searchData binary-searches a level's sorted data chain through its page
// directory: O(log₂(pages)) reads.
func searchData(p disk.Pager, lv *levelState, pt record.Point) (bool, error) {
	if len(lv.dataPages) == 0 {
		return false, nil
	}
	buf := make([]byte, p.PageSize())
	cap := disk.ChainCap(p.PageSize(), record.PointSize)
	// Find the rightmost page whose first record is <= pt.
	lo, hi, found := 0, len(lv.dataPages)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		first, _, err := readDataPage(p, lv.dataPages[mid], buf, cap)
		if err != nil {
			return false, fmt.Errorf("lsm: level %d data page %d: %w", lv.slot, lv.dataPages[mid], err)
		}
		if pt.Less(first) {
			hi = mid - 1
		} else {
			found = mid
			lo = mid + 1
		}
	}
	if found < 0 {
		return false, nil
	}
	_, recs, err := readDataPage(p, lv.dataPages[found], buf, cap)
	if err != nil {
		return false, fmt.Errorf("lsm: level %d data page %d: %w", lv.slot, lv.dataPages[found], err)
	}
	for _, r := range recs {
		if r == pt {
			return true, nil
		}
		if pt.Less(r) {
			break
		}
	}
	return false, nil
}

// readDataPage reads one chain page of points, returning the first record
// and the decoded page contents.
func readDataPage(p disk.Pager, id disk.PageID, buf []byte, cap int) (record.Point, []record.Point, error) {
	var first record.Point
	if err := p.Read(id, buf); err != nil {
		return first, nil, err
	}
	n := int(uint16(buf[8]) | uint16(buf[9])<<8)
	if n < 1 || n > cap {
		return first, nil, fmt.Errorf("lsm: data page %d holds %d records (cap %d): %w", id, n, cap, disk.ErrCorrupt)
	}
	recs := make([]record.Point, n)
	for i := 0; i < n; i++ {
		recs[i] = record.DecodePoint(buf[10+i*record.PointSize:])
	}
	return recs[0], recs, nil
}

// Len reports the number of live records (inserts minus deletes).
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// B reports the page capacity in points.
func (t *Tree) B() int { return t.b }

// FlushEvery reports the memtable flush threshold.
func (t *Tree) FlushEvery() int { return t.flushEvery }

// Levels reports how many slots are occupied — the query multiplier.
func (t *Tree) Levels() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.levelsLocked()
}

func (t *Tree) levelsLocked() int {
	c := 0
	for _, lv := range t.levels {
		if lv != nil {
			c++
		}
	}
	return c
}

// LevelInfos summarizes every occupied slot for diagnostics.
func (t *Tree) LevelInfos() []LevelInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []LevelInfo
	for _, lv := range t.levels {
		if lv == nil {
			continue
		}
		out = append(out, LevelInfo{
			Slot:       lv.slot,
			Records:    lv.n,
			TreePages:  len(lv.treePages),
			DataPages:  len(lv.dataPages),
			BloomPages: lv.bloomPages,
		})
	}
	return out
}

// LevelRecordsAt reports the record count of the level at slot, 0 when the
// slot is empty or out of range.
func (t *Tree) LevelRecordsAt(slot int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if slot < 0 || slot >= len(t.levels) || t.levels[slot] == nil {
		return 0
	}
	return t.levels[slot].n
}

// TombCount reports the number of pending tombstones.
func (t *Tree) TombCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tombs)
}

// WALEntries reports the raw entries in the current WAL (the memtable's
// op count since the last flush).
func (t *Tree) WALEntries() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.memOps
}

// Seq reports the manifest sequence number (one per flush/compaction).
func (t *Tree) Seq() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.seq
}

// BaseName reports the configured base kind's registry name.
func (t *Tree) BaseName() string { return t.cfg.Base.Name() }

// BaseKind reports the configured base kind's registry byte.
func (t *Tree) BaseKind() byte { return t.cfg.Base.Kind() }
