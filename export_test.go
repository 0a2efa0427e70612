package pathcache

import (
	"os"
	"sync/atomic"

	"pathcache/internal/disk"
)

// FileIO counts the physical writes and fsyncs of the file under an index.
type FileIO struct{ Writes, Syncs atomic.Int64 }

// WithFileIO returns a copy of opts that backs the index with a new file
// at path, the store Options.Path would create there, counting each
// WriteAt and Sync of that file in io: how the external benchmarks see the
// page writes and durability barriers a build pays.
func WithFileIO(opts Options, path string, io *FileIO) (*Options, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	opts.Path, opts.testFile = "", countingFile{disk.OSFile{File: f}, io}
	return &opts, nil
}

// countingFile is a disk.File that counts its WriteAt and Sync calls.
type countingFile struct {
	disk.File
	io *FileIO
}

func (c countingFile) WriteAt(p []byte, off int64) (int, error) {
	c.io.Writes.Add(1)
	return c.File.WriteAt(p, off)
}

func (c countingFile) Sync() error {
	c.io.Syncs.Add(1)
	return c.File.Sync()
}
