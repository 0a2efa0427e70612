package lsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcache/internal/disk"
	"pathcache/internal/record"
)

// gate parks the first armed caller of wait until open is called, and
// reports through parked when one has arrived.
type gate struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{parked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) wait() {
	if g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.release
	}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// within runs f on its own goroutine and fails the test with f's error, or
// if f has not returned after a bounded wait — the check that f did not
// queue behind a parked writer.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked behind a parked writer", what)
	}
}

// awaitParked waits (bounded) for a writer to reach the gate.
func awaitParked(t *testing.T, g *gate, what string) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached its park point", what)
	}
}

// TestReadersPassParkedFsync parks an update inside its WAL fsync: a
// concurrent Query and Has complete on the published version, which does
// not hold the in-flight record, and see it once the update returns.
func TestReadersPassParkedFsync(t *testing.T) {
	base, err := BaseFor(BaseTwoSided)
	if err != nil {
		t.Fatal(err)
	}
	v := &volatileTree{store: disk.MustStore(256), base: base, fe: 64}
	g := newGate()
	defer g.open()
	cfg := v.config()
	cfg.Sync = func(disk.Pager) error { g.wait(); return nil }
	tr, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := map[record.Point]bool{}
	for i := 0; i < 40; i++ {
		p := pt(int64(i), int64(40-i), uint64(i))
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatal(err)
		}
		live[p] = true
		if i == 29 {
			if _, err := tr.Flush(v.store); err != nil {
				t.Fatal(err)
			}
		}
	}

	inflight := pt(100, 100, 1000)
	g.armed.Store(true)
	inserted := make(chan error, 1)
	go func() { inserted <- tr.Insert(v.store, inflight) }()
	awaitParked(t, g, "the insert")

	within(t, "Query", func() error { return queryDiff(tr, v.store, live, 0, 0) })
	within(t, "Has", func() error {
		if ok, _, err := tr.Has(v.store, inflight); err != nil || ok {
			return fmt.Errorf("Has(in-flight record) = %v, %v before its fsync returned", ok, err)
		}
		return nil
	})

	g.open()
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the released insert never returned")
	}
	live[inflight] = true
	checkQuery(t, tr, v.store, live, 0, 0)
	if ok, _, err := tr.Has(v.store, inflight); err != nil || !ok {
		t.Fatalf("Has(acknowledged record) = %v, %v", ok, err)
	}
}

// parkingPager parks the first armed page Write until its gate opens — a
// level build stalled mid-flush.
type parkingPager struct {
	disk.Pager
	g *gate
}

func (p parkingPager) Write(id disk.PageID, buf []byte) error {
	p.g.wait()
	return p.Pager.Write(id, buf)
}

// TestQueryDuringFlushBuild parks a Flush at the first page write of its
// level build: a concurrent query completes on the pre-flush version
// (memtable only, no level) and, after the commit, answers the same records
// from the post-flush version (one level, empty memtable).
func TestQueryDuringFlushBuild(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 64)
	live := map[record.Point]bool{}
	for i := 0; i < 50; i++ {
		p := pt(int64(i*7%50), int64(i), uint64(i))
		if err := tr.Insert(v.store, p); err != nil {
			t.Fatal(err)
		}
		live[p] = true
	}

	g := newGate()
	defer g.open()
	g.armed.Store(true)
	flushed := make(chan error, 1)
	go func() {
		_, err := tr.Flush(parkingPager{Pager: v.store, g: g})
		flushed <- err
	}()
	awaitParked(t, g, "the flush")

	within(t, "Query", func() error {
		if err := queryDiff(tr, v.store, live, 0, 0); err != nil {
			return err
		}
		if _, ver, err := tr.AppendQuery(v.store, nil, 0, 0); err != nil || ver.Levels != 0 {
			return fmt.Errorf("ran on %+v (%v), want the pre-flush version with no level", ver, err)
		}
		return nil
	})

	g.open()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the released flush never returned")
	}
	checkQuery(t, tr, v.store, live, 0, 0)
	if _, ver, err := tr.AppendQuery(v.store, nil, 0, 0); err != nil || ver.Levels != 1 || tr.WALEntries() != 0 {
		t.Fatalf("query after the flush ran on %+v (%v) with %d WAL entries, want one level and an empty memtable", ver, err, tr.WALEntries())
	}
}

// readParkingPager parks the first armed page Read until its gate opens — a
// compaction stalled while it gathers the levels it rebuilds.
type readParkingPager struct {
	disk.Pager
	g *gate
}

func (p readParkingPager) Read(id disk.PageID, buf []byte) error {
	p.g.wait()
	return p.Pager.Read(id, buf)
}

// TestWritersWaitOutParkedCompact parks a Compact at its first page read,
// inside the gather of the level it rebuilds: a concurrent query completes
// on the published version, while 16 more inserts and the Flush that would
// merge and free that level wait for the compaction to commit. Once the
// read is released both succeed and a full query returns all 32 records.
// Were the gather to run without the writer lock, that Flush would free
// the level under the parked read, which would then fail with "page id
// out of range or freed".
func TestWritersWaitOutParkedCompact(t *testing.T) {
	v, tr := newVolatile(t, BaseTwoSided, 256, 16)
	rec := func(i int) record.Point { return pt(int64(i), int64(32-i), uint64(i)) }
	insertAndFlush := func(from, to int) error {
		for i := from; i < to; i++ {
			if err := tr.Insert(v.store, rec(i)); err != nil {
				return err
			}
		}
		_, err := tr.Flush(v.store)
		return err
	}
	if err := insertAndFlush(0, 16); err != nil {
		t.Fatal(err)
	}
	live := map[record.Point]bool{}
	for i := 0; i < 16; i++ {
		live[rec(i)] = true
	}

	g := newGate()
	defer g.open()
	g.armed.Store(true)
	compacted := make(chan error, 1)
	go func() {
		_, err := tr.Compact(readParkingPager{Pager: v.store, g: g})
		compacted <- err
	}()
	awaitParked(t, g, "the compaction")

	within(t, "Query", func() error { return queryDiff(tr, v.store, live, 0, 0) })
	wrote := make(chan error, 1)
	go func() { wrote <- insertAndFlush(16, 32) }()
	select {
	case err := <-wrote:
		wrote <- err
		t.Errorf("16 inserts and a Flush returned (%v) while the compaction was parked; they must wait for its commit", err)
	case <-time.After(50 * time.Millisecond):
	}

	g.open()
	await := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned after the read was released", what)
		}
	}
	await("Compact", compacted)
	await("the inserts and Flush", wrote)
	for i := 16; i < 32; i++ {
		live[rec(i)] = true
	}
	checkQuery(t, tr, v.store, live, 0, 0)
}
