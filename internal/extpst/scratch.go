package extpst

import (
	"sync"

	"pathcache/internal/disk"
	"pathcache/internal/record"
	"pathcache/internal/skeletal"
)

// Scratch is one query's reusable working memory: the skeletal walker and
// its pooled page views, the corner path, and the result accumulator. A
// served query takes one with GetScratch, runs QueryOn, copies the answer
// out, and releases it, so in steady state a query allocates none of these.
// Everything QueryOn returns with a scratch aliases it and is valid only
// until Release (DESIGN §14's view lifetime rule).
type Scratch struct {
	w    skeletal.Walker
	path []skeletal.Node
	out  []record.Point
}

// maxPooledResults caps the result accumulator a released scratch keeps: a
// rare huge answer's slice goes to the collector instead of staying pinned
// in the pool.
const maxPooledResults = 4096

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release hands the scratch's page buffers back to disk's pool and the
// scratch back to its own. Nothing a query returned through it may be used
// afterwards.
func (s *Scratch) Release() {
	s.w.Release()
	clear(s.path)
	s.path = s.path[:0]
	if cap(s.out) > maxPooledResults {
		s.out = nil
	}
	s.out = s.out[:0]
	scratchPool.Put(s)
}

// queryOwned answers one query through p with pooled working memory and
// returns a result the caller owns (nil when empty).
func queryOwned(ix PointIndex, p disk.Pager, a, b int64) ([]record.Point, skeletal.QueryStats, error) {
	s := GetScratch()
	defer s.Release()
	pts, st, err := ix.QueryOn(p, a, b, s)
	if err != nil {
		return nil, st, err
	}
	return append([]record.Point(nil), pts...), st, nil
}
