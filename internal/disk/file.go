package disk

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the byte-addressed backing device a FileStore writes through. It is
// the seam the crash-consistency tests inject faults at: a real *os.File (via
// OSFile), an in-memory image (MemFile), or a CrashFile that kills the device
// at an arbitrary write. Keeping the seam below the FileStore means torn
// writes corrupt raw bytes — exactly what the page checksums and the
// double-buffered superblock must catch. A FileStore issues ReadAt calls
// from concurrent readers, so implementations must allow them.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Size reports the current length of the backing device in bytes.
	Size() (int64, error)
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the device. Further operations fail.
	Close() error
}

// OSFile adapts an *os.File to the File interface.
type OSFile struct {
	*os.File
}

// Size implements File.
func (f OSFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("disk: stat backing file: %w", err)
	}
	return st.Size(), nil
}

// MemFile is an in-memory File: a growable byte image with os.File ReadAt /
// WriteAt semantics. The crash-simulation harness builds stores on a MemFile
// so that sweeping hundreds of kill points stays fast, then snapshots the
// bytes that "reached the platter" with Bytes.
//
// MemFile is safe for concurrent use.
type MemFile struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFile returns an empty in-memory file.
func NewMemFile() *MemFile { return &MemFile{} }

// NewMemFileFrom returns an in-memory file holding a copy of data — e.g. a
// post-crash snapshot, or a fuzzed image.
func NewMemFileFrom(data []byte) *MemFile {
	return &MemFile{data: append([]byte(nil), data...)}
}

// ReadAt implements io.ReaderAt with os.File semantics: a read past the end
// returns the available bytes and io.EOF.
func (m *MemFile) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("disk: negative offset %d", off)
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the image as needed (the gap, if
// any, reads as zeros, matching a sparse file).
func (m *MemFile) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("disk: negative offset %d", off)
	}
	if end := off + int64(len(p)); end > int64(len(m.data)) {
		// Grow by doubling, so a store appending page after page copies
		// its image O(log n) times, not once per page.
		if end > int64(cap(m.data)) {
			grown := make([]byte, len(m.data), max(end, 2*int64(cap(m.data))))
			copy(grown, m.data)
			m.data = grown
		}
		old := len(m.data)
		m.data = m.data[:end]
		clear(m.data[old:])
	}
	copy(m.data[off:], p)
	return len(p), nil
}

// Size implements File.
func (m *MemFile) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.data)), nil
}

// Sync implements File (memory is always "stable").
func (m *MemFile) Sync() error { return nil }

// Close implements File. The image stays readable through Bytes so a crashed
// store can still be snapshotted.
func (m *MemFile) Close() error { return nil }

// Bytes returns a copy of the current image.
func (m *MemFile) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data...)
}
