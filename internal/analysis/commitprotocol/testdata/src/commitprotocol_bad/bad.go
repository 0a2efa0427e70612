// Package commitprotocol_bad collects the forbidden orderings around the
// commit flip: freeing superseded pages before (or without) the flip, and
// writing new-chain pages after it.
package commitprotocol_bad

import (
	"pathcache/internal/disk"
)

type config struct {
	Commit func([]byte) error
}

type store struct {
	p   disk.Pager
	fs  *disk.FileStore
	cfg config
}

// freeBeforeFlip destroys the old page while the live metadata still
// references it: a crash before the flip recovers into corruption.
func (s *store) freeBeforeFlip(old disk.PageID, blob []byte) error {
	if err := s.p.Free(old); err != nil { // want `freed with no commit flip`
		return err
	}
	if err := s.cfg.Commit(blob); err != nil {
		return err
	}
	return nil
}

// freeOnFliplessPath frees on a branch the flip never reaches. The
// post-flip free at the end is fine: every path to it passed the commit.
func (s *store) freeOnFliplessPath(stale bool, old disk.PageID, blob []byte) error {
	if stale {
		return disk.FreeChain(s.p, old) // want `freed with no commit flip`
	}
	if err := s.cfg.Commit(blob); err != nil {
		return err
	}
	return disk.FreeChain(s.p, old)
}

// writeAfterFlip publishes metadata that references a page not yet
// written: the flip must be the last mutation of the new state.
func (s *store) writeAfterFlip(id disk.PageID, page, blob []byte) error {
	if err := s.cfg.Commit(blob); err != nil {
		return err
	}
	return s.p.Write(id, page) // want `write reachable after a commit flip`
}

// blobAfterFlip writes the payload the flip was meant to publish only after
// publishing it: a crash in between leaves metadata naming an unwritten
// chain.
func (s *store) blobAfterFlip(raw, blob []byte) error {
	if err := s.cfg.Commit(blob); err != nil {
		return err
	}
	_, _, err := disk.WriteCommitted(s.p, 0x4d747374, 1, raw) // want `write reachable after a commit flip`
	return err
}

// sealTail delegates its writes; the caller's ordering is still checked
// through the call-graph summary.
func (s *store) sealTail(ids []disk.PageID, page []byte) error {
	for _, id := range ids {
		if err := s.p.Write(id, page); err != nil {
			return err
		}
	}
	return nil
}

// helperWriteAfterFlip writes through a package-local helper after the
// commit.
func (s *store) helperWriteAfterFlip(ids []disk.PageID, page, blob []byte) error {
	if err := s.cfg.Commit(blob); err != nil {
		return err
	}
	return s.sealTail(ids, page) // want `write reachable after a commit flip`
}

// earlyFree frees the superseded metadata page before the superblock flip
// (SetAppHead) publishes its replacement.
func (s *store) earlyFree(oldMeta, newMeta disk.PageID) error {
	if err := s.p.Free(oldMeta); err != nil { // want `freed with no commit flip`
		return err
	}
	return s.fs.SetAppHead(newMeta)
}
