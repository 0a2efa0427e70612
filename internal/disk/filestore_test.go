package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"pathcache/internal/race"
)

func newFileStore(t *testing.T, pageSize int) (*FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.pc")
	fs, err := CreateFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs, path
}

func TestFileStoreUsablePageSize(t *testing.T) {
	fs, _ := newFileStore(t, 128)
	if got := fs.PageSize(); got != 128-pageTrailerSize {
		t.Fatalf("PageSize() = %d, want %d (physical minus checksum trailer)", got, 128-pageTrailerSize)
	}
	// B derives from the usable size, so chain packing stays exact.
	if c := ChainCap(fs.PageSize(), 16); c != (fs.PageSize()-chainHeader)/16 {
		t.Fatalf("ChainCap over usable size = %d", c)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, _ := newFileStore(t, 128)
	ps := fs.PageSize()
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	if err := fs.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if err := fs.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("round trip mismatch")
	}
	st := fs.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFileStorePersistence(t *testing.T) {
	fs, path := newFileStore(t, 128)
	ps := fs.PageSize()
	var ids []PageID
	for i := 0; i < 10; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, ps)
		buf[0] = byte(i + 1)
		if err := fs.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Free a couple to persist the free list too.
	if err := fs.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(ids[7]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PageSize() != ps {
		t.Fatalf("page size = %d, want %d", re.PageSize(), ps)
	}
	if re.NumPages() != 8 {
		t.Fatalf("NumPages = %d, want 8", re.NumPages())
	}
	buf := make([]byte, ps)
	for i, id := range ids {
		if i == 3 || i == 7 {
			if err := re.Read(id, buf); !errors.Is(err, ErrBadPage) {
				t.Fatalf("read of freed page %d: %v", id, err)
			}
			continue
		}
		if err := re.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d: got %d want %d", id, buf[0], i+1)
		}
	}
	// Freed pages are reused before the file grows.
	a, err := re.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a != ids[7] && a != ids[3] {
		t.Fatalf("expected reuse of a freed page, got %d", a)
	}
	if err := re.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("reused page not zeroed")
	}
}

func TestFileStoreErrors(t *testing.T) {
	fs, path := newFileStore(t, 128)
	buf := make([]byte, fs.PageSize())
	if err := fs.Read(5, buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("read unallocated: %v", err)
	}
	if err := fs.Read(0, make([]byte, 10)); !errors.Is(err, ErrShortBuf) {
		t.Fatalf("short buf: %v", err)
	}
	id, _ := fs.Alloc()
	if err := fs.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(id); !errors.Is(err, ErrDoubleUse) {
		t.Fatalf("double free: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Alloc(); !errors.Is(err, errClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
	if _, err := CreateFileStore(path, 1); err == nil {
		t.Fatal("tiny page accepted")
	}
	if _, err := CreateFileStore(path, MinFilePageSize-1); err == nil {
		t.Fatal("page below superblock slots accepted")
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("opened missing file")
	}
}

func TestFileStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-store")
	if err := writeFile(path, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFileStore(path)
	if err == nil {
		t.Fatal("opened a non-store file")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file error %v, want wrapped ErrCorrupt", err)
	}
}

func TestFileStoreChains(t *testing.T) {
	fs, _ := newFileStore(t, 128)
	recs := make([]byte, 16*50)
	for i := range recs {
		recs[i] = byte(i)
	}
	head, _, err := WriteChain(fs, 16, recs)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := ScanChain(fs, 16, head, func(r []byte) bool {
		got = append(got, r...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recs, got) {
		t.Fatal("chain round trip on file store failed")
	}
	if err := FreeChain(fs, head); err != nil {
		t.Fatal(err)
	}
	if fs.NumPages() != 0 {
		t.Fatalf("pages leaked: %d", fs.NumPages())
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// Property: any alloc/write/free sequence survives a close/reopen cycle
// with identical contents and free-set.
func TestFileStoreReopenProperty(t *testing.T) {
	f := func(ops []struct {
		Free bool
		Fill uint8
	}) bool {
		path := filepath.Join(t.TempDir(), "p.pc")
		fs, err := CreateFileStore(path, 128)
		if err != nil {
			return false
		}
		ps := fs.PageSize()
		contents := map[PageID][]byte{}
		var liveIDs []PageID
		for _, op := range ops {
			if op.Free && len(liveIDs) > 0 {
				id := liveIDs[0]
				liveIDs = liveIDs[1:]
				if fs.Free(id) != nil {
					return false
				}
				delete(contents, id)
				continue
			}
			id, err := fs.Alloc()
			if err != nil {
				return false
			}
			buf := make([]byte, ps)
			for i := range buf {
				buf[i] = op.Fill
			}
			if fs.Write(id, buf) != nil {
				return false
			}
			contents[id] = buf
			liveIDs = append(liveIDs, id)
		}
		if fs.Close() != nil {
			return false
		}
		re, err := OpenFileStore(path)
		if err != nil {
			return false
		}
		defer re.Close()
		if re.NumPages() != len(contents) {
			return false
		}
		if _, err := re.Verify(); err != nil {
			return false
		}
		got := make([]byte, ps)
		for id, want := range contents {
			if re.Read(id, got) != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A flipped bit anywhere in a page's payload or trailer must surface as a
// wrapped ErrCorrupt on the next read — never as silently different bytes.
func TestFileStoreDetectsBitFlips(t *testing.T) {
	fs, path := newFileStore(t, 128)
	ps := fs.PageSize()
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ps)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := fs.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	for _, byteOff := range []int64{0, int64(ps) / 2, int64(ps), int64(ps) + pageTrailerSize - 1} {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img[128+byteOff] ^= 0x40 // page 0 lives at the physical page offset
		flipped := filepath.Join(t.TempDir(), "flipped.pc")
		if err := writeFile(flipped, img); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileStore(flipped)
		if err != nil {
			t.Fatalf("open after payload flip at %d: %v", byteOff, err)
		}
		got := make([]byte, ps)
		if err := re.Read(id, got); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read after flip at %d: err = %v, want wrapped ErrCorrupt", byteOff, err)
		}
		if _, err := re.Verify(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Verify after flip at %d: err = %v, want wrapped ErrCorrupt", byteOff, err)
		}
		re.Close()
	}
}

// Destroying one superblock slot leaves the other in charge: the store
// opens with the surviving epoch, rolling back exactly the one update that
// slot carried. Destroying both is a clean ErrCorrupt. Allocations write
// no superblock, so the two updates here are the two SetAppHead commits,
// and Close, with nothing pending, writes none.
func TestFileStoreSuperblockFallback(t *testing.T) {
	fs, path := newFileStore(t, 128)
	var ids [2]PageID
	for i := range ids {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, fs.PageSize())
		buf[0] = byte(42 + i)
		if err := fs.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		// epoch 1 -> slot 1 (numPages 1, appHead ids[0]);
		// epoch 2 -> slot 0 (numPages 2, appHead ids[1]).
		if err := fs.SetAppHead(id); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	destroySlot := func(slot int) []byte {
		mangled := append([]byte(nil), img...)
		for i := 0; i < superSize; i++ {
			mangled[slot*superSlotSize+i] ^= 0xFF
		}
		return mangled
	}
	check := func(re *FileStore, epoch uint64, live int) {
		t.Helper()
		if re.epoch != epoch || re.numPages != int64(live) || re.AppHead() != ids[live-1] {
			t.Fatalf("epoch %d, %d pages, appHead %d; want epoch %d, %d pages, appHead %d",
				re.epoch, re.numPages, re.AppHead(), epoch, live, ids[live-1])
		}
		got := make([]byte, re.PageSize())
		for i, id := range ids {
			err := re.Read(id, got)
			if i >= live {
				if !errors.Is(err, ErrBadPage) {
					t.Fatalf("page %d beyond the rolled-back count: %v, want ErrBadPage", id, err)
				}
				continue
			}
			if err != nil || got[0] != byte(42+i) {
				t.Fatalf("page %d read = %v, byte %d", id, err, got[0])
			}
		}
	}

	// Newest slot (0, epoch 2) destroyed: fall back to epoch 1. Exactly
	// the second commit rolls back: the second page and its app head.
	re, err := OpenFileStoreOn(NewMemFileFrom(destroySlot(0)))
	if err != nil {
		t.Fatalf("open with newest slot destroyed: %v", err)
	}
	check(re, 1, 1)
	re.Close()

	// Older slot (1, epoch 1) destroyed: the newest state survives intact.
	re, err = OpenFileStoreOn(NewMemFileFrom(destroySlot(1)))
	if err != nil {
		t.Fatalf("open with stale slot destroyed: %v", err)
	}
	check(re, 2, 2)
	re.Close()

	both := append([]byte(nil), img...)
	for i := 0; i < 2*superSlotSize; i++ {
		both[i] ^= 0xFF
	}
	p := filepath.Join(t.TempDir(), "no-slot.pc")
	if err := writeFile(p, both); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with both slots destroyed: %v, want wrapped ErrCorrupt", err)
	}
}

// A truncated file must fail cleanly: either the superblock no longer
// matches the file size, or page reads report ErrCorrupt.
func TestFileStoreTruncation(t *testing.T) {
	fs, path := newFileStore(t, 128)
	for i := 0; i < 4; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, fs.PageSize())
		buf[0] = byte(i + 1)
		if err := fs.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(img) - 1; cut > 0; cut -= 97 {
		_, err := OpenFileStoreOn(NewMemFileFrom(img[:cut]))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d: open error %v is not a wrapped ErrCorrupt", cut, err)
		}
	}
}

// Corrupting a free-list stub is caught when the list is walked at open.
func TestFileStoreFreeListStubChecksum(t *testing.T) {
	fs, path := newFileStore(t, 128)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fs.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The stub is (next, CRC32C(next ‖ id)), both little-endian.
	off := 128 * (1 + int(ids[1]))
	var pair [16]byte
	copy(pair[:8], img[off:off+8])
	binary.LittleEndian.PutUint64(pair[8:], uint64(ids[1]))
	if got, want := binary.LittleEndian.Uint32(img[off+8:off+12]), crc32.Checksum(pair[:], crcTable); got != want {
		t.Fatalf("stub checksum %08x, want CRC32C(next ‖ id) = %08x", got, want)
	}
	// Mangle the freed page's next pointer without fixing its checksum.
	binary.LittleEndian.PutUint64(img[off:off+8], uint64(ids[0]))
	if _, err := OpenFileStoreOn(NewMemFileFrom(img)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mangled free stub: %v, want wrapped ErrCorrupt", err)
	}
}

func TestFileStoreVerifyClean(t *testing.T) {
	fs, _ := newFileStore(t, 128)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, fs.PageSize())
		buf[0] = byte(i)
		if err := fs.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live != 5 || rep.Free != 1 || rep.PagesOK != 5 || rep.FreeStubsOK != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Usable != 128-pageTrailerSize || rep.PageSize != 128 {
		t.Fatalf("report sizes = %+v", rep)
	}
	// Verify must not disturb the I/O accounting.
	before := fs.Stats()
	if _, err := fs.Verify(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats() != before {
		t.Fatal("Verify changed the I/O counters")
	}
}

// An extending Alloc writes nothing, yet the page it returns must read as
// zeros until its first Write, as the Pager contract requires: before any
// superblock counts it, after an unrelated superblock write has counted
// (and zero-filled) it, and after a crash left stale, checksum-valid bytes
// of an earlier run beyond the durable page count.
func TestFileStoreUnwrittenReadsZero(t *testing.T) {
	mem := NewMemFile()
	fs, err := CreateFileStoreOn(mem, 128)
	if err != nil {
		t.Fatal(err)
	}
	ps := fs.PageSize()
	zero, got, fill := make([]byte, ps), make([]byte, ps), make([]byte, ps)
	for i := range fill {
		fill[i] = 0xA5
	}
	alloc := func(fs *FileStore) PageID {
		t.Helper()
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustZero := func(fs *FileStore, id PageID, when string) {
		t.Helper()
		if err := fs.Read(id, got); err != nil || !bytes.Equal(got, zero) {
			t.Fatalf("%s: unwritten page %d read = %v, zero %v", when, id, err, bytes.Equal(got, zero))
		}
	}

	a := alloc(fs)
	before := mem.Bytes()
	mustZero(fs, a, "before its first write")
	if !bytes.Equal(mem.Bytes(), before) {
		t.Fatal("an extending Alloc wrote to the file")
	}
	b := alloc(fs)
	if err := fs.Write(b, fill); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetAppHead(b); err != nil { // counts a, so zero-fills it
		t.Fatal(err)
	}
	mustZero(fs, a, "after an unrelated superblock write")
	if _, err := fs.Verify(); err != nil {
		t.Fatal(err)
	}

	// A later run writes two more pages past the durable count and dies
	// before any superblock counts them: their bytes are in the file,
	// checksums and all.
	for i := 0; i < 2; i++ {
		if err := fs.Write(alloc(fs), fill); err != nil {
			t.Fatal(err)
		}
	}
	crashed := mem.Bytes()
	re, err := OpenFileStoreOn(NewMemFileFrom(crashed))
	if err != nil {
		t.Fatal(err)
	}
	if re.numPages != 2 {
		t.Fatalf("reopened with %d pages, want the durable 2", re.numPages)
	}
	c, d := alloc(re), alloc(re)
	mustZero(re, c, "over stale bytes after a crash-reopen")
	mustZero(re, d, "over stale bytes after a crash-reopen")
	if err := re.SetAppHead(b); err != nil {
		t.Fatal(err)
	}
	mustZero(re, c, "over stale bytes after a superblock write")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreWriteAllocs pins the store's write path at zero
// allocations: an extending Alloc, a free-list pop, page writes, a
// superblock update and a free all reuse the store's metadata buffer and
// pooled page buffers.
func TestFileStoreWriteAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool items and allocates")
	}
	fs, _ := newFileStore(t, 4096)
	buf := make([]byte, fs.PageSize())
	cycle := func() {
		a, err := fs.Alloc() // pops the page the last cycle freed
		if err != nil {
			t.Fatal(err)
		}
		b, err := fs.Alloc() // extends the file
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []PageID{a, b} {
			pagePattern(buf, id, 1)
			if err := fs.Write(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.SetAppHead(a); err != nil {
			t.Fatal(err)
		}
		if err := fs.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("FileStore write path: %.1f allocs per cycle, want 0", got)
	}
}
