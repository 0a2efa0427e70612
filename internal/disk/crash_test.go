package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestMemFileSemantics(t *testing.T) {
	m := NewMemFile()
	if n, err := m.WriteAt([]byte("hello"), 3); n != 5 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if sz, err := m.Size(); sz != 8 || err != nil {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	buf := make([]byte, 5)
	if n, err := m.ReadAt(buf, 3); n != 5 || err != nil || string(buf) != "hello" {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
	// The gap before the write reads as zeros, like a sparse file.
	if n, err := m.ReadAt(buf[:3], 0); n != 3 || err != nil || !bytes.Equal(buf[:3], []byte{0, 0, 0}) {
		t.Fatalf("gap ReadAt = %d, %v, %v", n, err, buf[:3])
	}
	// Reads crossing EOF return the available prefix plus io.EOF.
	if n, err := m.ReadAt(buf, 6); n != 2 || err != io.EOF {
		t.Fatalf("EOF ReadAt = %d, %v", n, err)
	}
	if n, err := m.ReadAt(buf, 100); n != 0 || err != io.EOF {
		t.Fatalf("past-EOF ReadAt = %d, %v", n, err)
	}
	// Bytes is a snapshot: mutating it must not alias the file.
	snap := m.Bytes()
	snap[3] = 'X'
	if _, err := m.ReadAt(buf[:1], 3); err != nil || buf[0] != 'h' {
		t.Fatalf("snapshot aliased the file: %q", buf[0])
	}
}

func TestCrashFileCountingMode(t *testing.T) {
	m := NewMemFile()
	cf := NewCrashFile(m, -1, 0)
	for i := 0; i < 7; i++ {
		if _, err := cf.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if cf.Writes() != 7 {
		t.Fatalf("Writes = %d, want 7", cf.Writes())
	}
	if cf.Crashed() {
		t.Fatal("counting-mode file crashed")
	}
}

func TestCrashFileKill(t *testing.T) {
	m := NewMemFile()
	cf := NewCrashFile(m, 2, 3)
	for i := 0; i < 2; i++ {
		if _, err := cf.WriteAt([]byte("abcdef"), int64(i*6)); err != nil {
			t.Fatalf("pre-crash write %d: %v", i, err)
		}
	}
	// The third write crashes, landing only its 3-byte torn prefix.
	n, err := cf.WriteAt([]byte("XYZQRS"), 12)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write err = %v, want ErrCrashed", err)
	}
	if n != 3 {
		t.Fatalf("torn write landed %d bytes, want 3", n)
	}
	if !cf.Crashed() {
		t.Fatal("Crashed() = false after kill")
	}
	// Everything after the kill fails.
	if _, err := cf.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash WriteAt err = %v", err)
	}
	if _, err := cf.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadAt err = %v", err)
	}
	if _, err := cf.Size(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Size err = %v", err)
	}
	if err := cf.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Sync err = %v", err)
	}
	if err := cf.Close(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Close err = %v", err)
	}
	// The surviving image holds both full writes plus the torn prefix.
	got := m.Bytes()
	want := append([]byte("abcdefabcdef"), []byte("XYZ")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("image = %q, want %q", got, want)
	}
}

// driveStoreWorkload runs a fixed mutation sequence against a store and
// returns the first error. The sequence exercises every write path: alloc,
// page write, app-head update, and free.
func driveStoreWorkload(fs *FileStore) error {
	usable := fs.PageSize()
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := fs.Alloc()
		if err != nil {
			return err
		}
		buf := make([]byte, usable)
		for j := range buf {
			buf[j] = byte(int(id) + j)
		}
		if err := fs.Write(id, buf); err != nil {
			return err
		}
		ids = append(ids, id)
	}
	if err := fs.SetAppHead(ids[0]); err != nil {
		return err
	}
	if err := fs.Free(ids[2]); err != nil {
		return err
	}
	id, err := fs.Alloc() // reuses the freed slot
	if err != nil {
		return err
	}
	buf := make([]byte, usable)
	for j := range buf {
		buf[j] = byte(7 * j)
	}
	return fs.Write(id, buf)
}

// linkPayload fills a link-workload page: its first 8 bytes name the next
// page of the chain (InvalidPage at the tail), the rest is a pattern of
// its own id.
func linkPayload(buf []byte, id, next PageID) {
	binary.LittleEndian.PutUint64(buf, uint64(next))
	for j := 8; j < len(buf); j++ {
		buf[j] = byte(int(id)*31 + j)
	}
}

// driveLinkWorkload grows a chain from a committed head the way the write
// tier's WAL rolls: allocate a page, write it, then link it from the
// chain's tail — a page an earlier superblock already counts — and sync.
// The third round also allocates a page it never writes, so the link's
// superblock must zero-fill it.
func driveLinkWorkload(fs *FileStore) error {
	buf := make([]byte, fs.PageSize())
	head, err := fs.Alloc()
	if err != nil {
		return err
	}
	linkPayload(buf, head, InvalidPage)
	if err := fs.Write(head, buf); err != nil {
		return err
	}
	if err := fs.SetAppHead(head); err != nil {
		return err
	}
	tail := head
	for round := 0; round < 3; round++ {
		if round == 2 {
			if _, err := fs.Alloc(); err != nil {
				return err
			}
		}
		id, err := fs.Alloc()
		if err != nil {
			return err
		}
		linkPayload(buf, id, InvalidPage)
		if err := fs.Write(id, buf); err != nil {
			return err
		}
		linkPayload(buf, tail, id)
		if err := fs.Write(tail, buf); err != nil {
			return err
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		tail = id
	}
	return nil
}

// checkLinkChain walks the chain from the app head of a reopened store.
// Every link that reads back checksum-clean must name a page inside the
// durable page count whose bytes are the ones written before the link:
// the link rule puts the superblock counting a page before any write that
// links it from durable state.
func checkLinkChain(fs *FileStore) error {
	buf, want := make([]byte, fs.PageSize()), make([]byte, fs.PageSize())
	for id, hops := fs.AppHead(), 0; id != InvalidPage; hops++ {
		if hops > 8 {
			return fmt.Errorf("chain from the app head does not end")
		}
		if id < 0 || int64(id) >= fs.numPages {
			return fmt.Errorf("link to page %d outside the durable page count %d", id, fs.numPages)
		}
		if err := fs.Read(id, buf); err != nil {
			if errors.Is(err, ErrCorrupt) {
				return nil // a torn write, detected
			}
			return fmt.Errorf("page %d: %w", id, err)
		}
		next := PageID(binary.LittleEndian.Uint64(buf))
		linkPayload(want, id, next)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("page %d reads back bytes that were never written to it", id)
		}
		id = next
	}
	return nil
}

// TestCrashSweepStoreLevel kills the store at every write I/O point of a
// workload (with several torn-write variants) and asserts the reopened
// image is never silently inconsistent: either open fails wrapping
// ErrCorrupt, or it opens with a plausible app head and every page read
// either verifies checksum-clean or itself fails with a wrapped ErrCorrupt.
// A torn data-page write is allowed to survive a reopen — page writes are
// not covered by the superblock transaction — but it must be *detected* at
// read time, never served as garbage.
//
// The mutations workload exercises every write path: alloc, page write,
// app-head update, free and a free-list pop. The link workload checks the
// rule that makes deferred allocation safe: a page linked from durable
// state is always inside the durable page count.
func TestCrashSweepStoreLevel(t *testing.T) {
	t.Run("mutations", func(t *testing.T) {
		// Valid app heads: InvalidPage (initial) or page 0 (after SetAppHead).
		sweepStore(t, driveStoreWorkload, func(fs *FileStore) error {
			if h := fs.AppHead(); h != InvalidPage && h != 0 {
				return fmt.Errorf("impossible app head %d", h)
			}
			return nil
		})
	})
	t.Run("link", func(t *testing.T) { sweepStore(t, driveLinkWorkload, checkLinkChain) })
}

// sweepStore runs workload once to count its writes, then once per kill
// point and tear variant, and checks each surviving image: open fails
// typed, or the store verifies, reads every page clean or typed, and
// passes check.
func sweepStore(t *testing.T, workload, check func(*FileStore) error) {
	// Instrumentation pass: count the writes the workload performs.
	cp, err := NewCrashPager(MinFilePageSize, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload(cp.Store); err != nil {
		t.Fatalf("instrumentation workload: %v", err)
	}
	total := cp.Crash.Writes()
	if total < 10 {
		t.Fatalf("workload only performed %d writes; sweep would be trivial", total)
	}

	for limit := int64(0); limit < total; limit++ {
		for _, torn := range []int{0, 1, superSize - 1, MinFilePageSize / 2} {
			cp, err := NewCrashPager(MinFilePageSize, limit, torn)
			if err != nil {
				// The crash fired during CreateFileStoreOn itself.
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("limit=%d torn=%d: create err = %v", limit, torn, err)
				}
			} else {
				werr := workload(cp.Store)
				if !errors.Is(werr, ErrCrashed) {
					t.Fatalf("limit=%d torn=%d: workload err = %v, want ErrCrashed", limit, torn, werr)
				}
				if cerr := cp.Store.Close(); cerr != nil && !errors.Is(cerr, ErrCrashed) {
					t.Fatalf("limit=%d torn=%d: close err = %v", limit, torn, cerr)
				}
			}

			reopened, err := OpenFileStoreOn(NewMemFileFrom(cp.Image()))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("limit=%d torn=%d: open err = %v, want wrapped ErrCorrupt", limit, torn, err)
				}
				continue
			}
			rep, verr := reopened.Verify()
			if verr != nil && !errors.Is(verr, ErrCorrupt) {
				t.Fatalf("limit=%d torn=%d: Verify err = %v, want nil or wrapped ErrCorrupt (report %+v)", limit, torn, verr, rep)
			}
			if err := check(reopened); err != nil {
				t.Fatalf("limit=%d torn=%d: %v", limit, torn, err)
			}
			// Every page read must either verify checksum-clean, be rejected
			// as a free slot (ErrBadPage), or flag the torn write as
			// ErrCorrupt — never hand back unflagged bytes.
			buf := make([]byte, reopened.PageSize())
			for id := PageID(0); int64(id) < rep.Slots; id++ {
				err := reopened.Read(id, buf)
				if err != nil && !errors.Is(err, ErrBadPage) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("limit=%d torn=%d: page %d read = %v", limit, torn, id, err)
				}
			}
			if err := reopened.Close(); err != nil {
				t.Fatalf("limit=%d torn=%d: close reopened: %v", limit, torn, err)
			}
		}
	}
}
