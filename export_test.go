package pathcache

import (
	"os"
	"sync/atomic"

	"pathcache/internal/disk"
)

// WithSyncCounter returns a copy of opts that backs the index with a new
// file at path, counting each fsync of that file in syncs — how the
// external benchmarks see the durability barriers a build pays.
func WithSyncCounter(opts Options, path string, syncs *atomic.Int64) (*Options, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	opts.Path, opts.testFile = "", syncCounter{disk.OSFile{File: f}, syncs}
	return &opts, nil
}

// syncCounter is a disk.File that counts its Sync calls.
type syncCounter struct {
	disk.File
	n *atomic.Int64
}

func (c syncCounter) Sync() error {
	c.n.Add(1)
	return c.File.Sync()
}
