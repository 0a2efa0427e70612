package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcache/internal/race"
)

// pagePattern fills buf with bytes determined by id and version, so a
// reader can re-verify any page it knows the version of.
func pagePattern(buf []byte, id PageID, version int) {
	for i := range buf {
		buf[i] = byte(int(id)*131 + version*17 + i)
	}
}

// TestFileStoreConcurrentReaders drives one real file with readers that
// re-verify known pages while a writer allocates, writes and frees other
// pages, and closes the store while both are mid-stream. Readers share the
// store's lock and the writer excludes them, so a reader sees correct bytes
// or errClosed — never a torn page (ErrCorrupt) — and Stats().Reads counts
// exactly the reads that succeeded. Run it under -race.
func TestFileStoreConcurrentReaders(t *testing.T) {
	const (
		pageSize  = 512
		known     = 32
		readers   = 4
		closeWhen = 2000 // reads before Close lands
	)
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "store.pc"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fs.PageSize())
	for i := 0; i < known; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pagePattern(buf, id, 0)
		if err := fs.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.Stats()

	var (
		wg       sync.WaitGroup
		reads    atomic.Int64 // successful reads, readers and writer alike
		writes   atomic.Int64
		closing  = make(chan struct{})
		tripOnce sync.Once
	)
	wg.Add(readers + 1)
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			got, want := make([]byte, fs.PageSize()), make([]byte, fs.PageSize())
			for {
				id := PageID(rng.Intn(known))
				err := fs.Read(id, got)
				if errors.Is(err, errClosed) {
					return
				}
				if err != nil {
					t.Errorf("reader: page %d: %v", id, err)
					return
				}
				pagePattern(want, id, 0)
				if !bytes.Equal(got, want) {
					t.Errorf("reader: page %d returned wrong bytes", id)
					return
				}
				// >=, not ==: the writer's read-backs bump the same
				// counter, so no reader may see exactly closeWhen.
				if reads.Add(1) >= closeWhen {
					tripOnce.Do(func() { close(closing) })
				}
			}
		}(int64(r))
	}
	go func() {
		defer wg.Done()
		got, want := make([]byte, fs.PageSize()), make([]byte, fs.PageSize())
		var mine []PageID
		for v := 1; ; v++ {
			id, err := fs.Alloc()
			if errors.Is(err, errClosed) {
				return
			}
			if err != nil {
				t.Errorf("writer: alloc: %v", err)
				return
			}
			if id < known {
				t.Errorf("writer: alloc returned reader page %d", id)
				return
			}
			pagePattern(want, id, v)
			if err := fs.Write(id, want); err != nil {
				if !errors.Is(err, errClosed) {
					t.Errorf("writer: write page %d: %v", id, err)
				}
				return
			}
			writes.Add(1)
			if err := fs.Read(id, got); err != nil {
				if !errors.Is(err, errClosed) {
					t.Errorf("writer: read back page %d: %v", id, err)
				}
				return
			}
			reads.Add(1)
			if !bytes.Equal(got, want) {
				t.Errorf("writer: page %d read back wrong bytes", id)
				return
			}
			mine = append(mine, id)
			if len(mine) > 4 {
				if err := fs.Free(mine[0]); err != nil {
					if !errors.Is(err, errClosed) {
						t.Errorf("writer: free page %d: %v", mine[0], err)
					}
					return
				}
				mine = mine[1:]
			}
		}
	}()

	<-closing
	if err := fs.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	wg.Wait()

	st := fs.Stats()
	if got := st.Reads - before.Reads; got != reads.Load() {
		t.Errorf("Stats().Reads moved by %d, but %d reads succeeded", got, reads.Load())
	}
	if got := st.Writes - before.Writes; got != writes.Load() {
		t.Errorf("Stats().Writes moved by %d, but %d writes succeeded", got, writes.Load())
	}
}

// TestFileStoreReadAllocs pins the steady-state read path at zero
// allocations: the checksummed slot comes from the page pool and the
// checksum folds in the page id without a heap buffer.
func TestFileStoreReadAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	fs, _ := newFileStore(t, 4096)
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fs.PageSize())
	pagePattern(buf, id, 1)
	if err := fs.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := fs.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("FileStore.Read: %.1f allocs per read, want 0", got)
	}
}

// parkingFile is a MemFile whose first armed Sync parks until released,
// modeling an fsync that takes a long time. Close records whether it ran
// while that Sync was still in flight.
type parkingFile struct {
	*MemFile
	armed         atomic.Bool
	inSync        atomic.Bool
	closedMidSync atomic.Bool
	parked        chan struct{}
	release       chan struct{}
}

func (f *parkingFile) Sync() error {
	if f.armed.CompareAndSwap(true, false) {
		f.inSync.Store(true)
		close(f.parked)
		<-f.release
		f.inSync.Store(false)
	}
	return f.MemFile.Sync()
}

func (f *parkingFile) Close() error {
	if f.inSync.Load() {
		f.closedMidSync.Store(true)
	}
	return f.MemFile.Close()
}

// waitOrFail waits for ch to close or deliver, failing the test after a
// bounded wait with what the wait was for.
func waitOrFail[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
	}
	t.Fatalf("timed out waiting for %s", what)
	var zero T
	return zero
}

// TestFileStoreReadDuringSync parks a Sync inside the device's fsync: a
// concurrent Read must still complete (Sync shares the lock with readers),
// while Close must wait until the Sync returns.
func TestFileStoreReadDuringSync(t *testing.T) {
	f := &parkingFile{MemFile: NewMemFile(), parked: make(chan struct{}), release: make(chan struct{})}
	fs, err := CreateFileStoreOn(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fs.PageSize())
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pagePattern(buf, id, 1)
	if err := fs.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(f.release) }) }
	defer unpark()

	f.armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- fs.Sync() }()
	waitOrFail(t, f.parked, "Sync to reach the device")

	read := make(chan error, 1)
	got := make([]byte, fs.PageSize())
	go func() { read <- fs.Read(id, got) }()
	if err := waitOrFail(t, read, "a Read beside a parked Sync"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("Read beside a parked Sync returned wrong bytes")
	}

	closed := make(chan error, 1)
	go func() { closed <- fs.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a Sync was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	unpark()
	if err := waitOrFail(t, synced, "the parked Sync to return"); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := waitOrFail(t, closed, "Close after the Sync"); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if f.closedMidSync.Load() {
		t.Fatal("Close reached the device while a Sync was in flight")
	}
}
