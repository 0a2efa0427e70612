package main

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pathcache"
)

// The oracle answers every query the benchmark sends without any of
// pathcache's structures: a uniform grid over the raw points with suffix
// sums of per-cell digests. A query adds the fully covered cells from the
// suffix table and scans the points of the one column and one row of cells
// its corner cuts. Expected answers are computed before the timed phase;
// checking a response then costs one hash per returned point.

// digest summarizes a point set: its size and the wrapping sum of a
// 64-bit hash of each (X, Y, ID) triple. Sums are additive, so cells
// combine by addition, and one wrong, missing or extra record changes the
// sum with overwhelming probability.
type digest struct {
	count int
	sum   uint64
}

func (d *digest) add(p pathcache.Point) {
	d.count++
	d.sum += pointHash(p)
}

func (d digest) plus(o digest) digest  { return digest{d.count + o.count, d.sum + o.sum} }
func (d digest) minus(o digest) digest { return digest{d.count - o.count, d.sum - o.sum} }

func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func pointHash(p pathcache.Point) uint64 {
	return splitmix64(uint64(p.X) ^ splitmix64(uint64(p.Y)^splitmix64(p.ID)))
}

// gridOracle indexes points in [0, domain)² for 2-sided queries.
type gridOracle struct {
	shift uint              // cell coordinate = value >> shift
	side  int               // cells per axis
	start []int32           // CSR offsets into pts, one per cell plus a sentinel
	pts   []pathcache.Point // points bucketed by cell (cell = cx*side + cy)
	suf   []digest          // (side+1)² suffix sums: suf[i][j] covers cells cx >= i, cy >= j
	all   digest            // every point
}

func newGridOracle(pts []pathcache.Point) *gridOracle {
	// About one point per cell, at most 1024 cells a side (a 16 MiB table).
	side := 16
	for side*side < len(pts) && side < 1024 {
		side *= 2
	}
	g := &gridOracle{
		shift: uint(bits.Len64(domain-1) - bits.Len(uint(side-1))),
		side:  side,
		start: make([]int32, side*side+1),
		pts:   make([]pathcache.Point, len(pts)),
		suf:   make([]digest, (side+1)*(side+1)),
	}
	cellOf := func(p pathcache.Point) int { return g.cell(p.X)*side + g.cell(p.Y) }
	for _, p := range pts {
		g.start[cellOf(p)+1]++
		g.all.add(p)
	}
	for c := 0; c < side*side; c++ {
		g.start[c+1] += g.start[c]
	}
	fill := append([]int32(nil), g.start[:side*side]...)
	for _, p := range pts {
		c := cellOf(p)
		g.pts[fill[c]] = p
		fill[c]++
	}
	w := side + 1
	for i := side - 1; i >= 0; i-- {
		for j := side - 1; j >= 0; j-- {
			var d digest
			for _, p := range g.cellPoints(i, j) {
				d.add(p)
			}
			g.suf[i*w+j] = d.plus(g.suf[(i+1)*w+j]).plus(g.suf[i*w+j+1]).minus(g.suf[(i+1)*w+j+1])
		}
	}
	return g
}

// cell maps a coordinate to its cell index, clamped to [0, side].
func (g *gridOracle) cell(v int64) int {
	if v <= 0 {
		return 0
	}
	if v >= domain {
		return g.side
	}
	return int(v >> g.shift)
}

func (g *gridOracle) cellPoints(cx, cy int) []pathcache.Point {
	c := cx*g.side + cy
	return g.pts[g.start[c]:g.start[c+1]]
}

// query returns the digest of every point with X >= a and Y >= b.
func (g *gridOracle) query(a, b int64) digest {
	cx, cy := g.cell(a), g.cell(b)
	if cx >= g.side || cy >= g.side {
		return digest{}
	}
	d := g.suf[(cx+1)*(g.side+1)+cy+1]
	scan := func(i, j int) {
		for _, p := range g.cellPoints(i, j) {
			if p.X >= a && p.Y >= b {
				d.add(p)
			}
		}
	}
	for j := cy; j < g.side; j++ {
		scan(cx, j)
	}
	for i := cx + 1; i < g.side; i++ {
		scan(i, cy)
	}
	return d
}

// checkAnswer verifies one 2-sided answer: the count field matches the
// points sent, every point lies in the query's quadrant, and the records
// with ID <= baseIDs digest to want. It returns the records above baseIDs
// — the LSM workload's own inserts, which the stamp oracle checks — and
// on static stores, where every ID is a base ID, nil.
func checkAnswer(a, b int64, count int, got []pathcache.Point, want digest, baseIDs uint64) ([]pathcache.Point, error) {
	if count != len(got) {
		return nil, fmt.Errorf("query {a:%d b:%d}: count %d but %d points", a, b, count, len(got))
	}
	var d digest
	var extra []pathcache.Point
	for _, p := range got {
		if p.X < a || p.Y < b {
			return nil, fmt.Errorf("query {a:%d b:%d}: point %+v outside the quadrant", a, b, p)
		}
		if p.ID > baseIDs {
			extra = append(extra, p)
			continue
		}
		d.add(p)
	}
	if d != want {
		return nil, fmt.Errorf("query {a:%d b:%d}: %d base records with digest %x, oracle has %d with %x",
			a, b, d.count, d.sum, want.count, want.sum)
	}
	return extra, nil
}

// stampOracle orders one writer's inserts and deletes and the readers'
// queries on one logical clock — the stamping internal/server's soak test
// uses, copied so the benchmark depends on no test code. Each point carries
// four stamps: insert submitted/acked, delete submitted/acked. A query
// spanning [start, end) must then see:
//   - every point insert-acked before start whose delete was not submitted
//     before end (it was provably live for the whole query);
//   - no point delete-acked before start;
//   - nothing never submitted at all.
type stampOracle struct {
	clock atomic.Uint64

	mu     sync.Mutex
	points map[pathcache.Point]*stamps
}

type stamps struct {
	insSubmit, insAck, delSubmit, delAck uint64
}

func newStampOracle() *stampOracle {
	return &stampOracle{points: make(map[pathcache.Point]*stamps)}
}

func (o *stampOracle) tick() uint64 { return o.clock.Add(1) }

func (o *stampOracle) stamp(p pathcache.Point, set func(*stamps, uint64)) {
	t := o.tick()
	o.mu.Lock()
	s := o.points[p]
	if s == nil {
		s = &stamps{}
		o.points[p] = s
	}
	set(s, t)
	o.mu.Unlock()
}

// observation is one answered query's writer-inserted records and its
// clock window, kept for checking after the round.
type observation struct {
	a, b       int64
	got        []pathcache.Point
	start, end uint64
}

// stampedPoint pairs a point with its stamps for the post-round scan.
type stampedPoint struct {
	p pathcache.Point
	s stamps
}

// checkAll validates every observation once the writer has stopped.
func (o *stampOracle) checkAll(obs []observation) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	all := make([]stampedPoint, 0, len(o.points))
	for p, s := range o.points {
		all = append(all, stampedPoint{p, *s})
	}
	for _, ob := range obs {
		have := make(map[pathcache.Point]bool, len(ob.got))
		for _, p := range ob.got {
			s := o.points[p]
			if s == nil || s.insSubmit == 0 || s.insSubmit > ob.end {
				return fmt.Errorf("query {a:%d b:%d} returned phantom point %+v", ob.a, ob.b, p)
			}
			if s.delAck != 0 && s.delAck < ob.start {
				return fmt.Errorf("query {a:%d b:%d} returned point %+v deleted before the query began", ob.a, ob.b, p)
			}
			have[p] = true
		}
		for _, sp := range all {
			p, s := sp.p, sp.s
			if p.X < ob.a || p.Y < ob.b {
				continue
			}
			mustSee := s.insAck != 0 && s.insAck < ob.start && (s.delSubmit == 0 || s.delSubmit > ob.end)
			if mustSee && !have[p] {
				return fmt.Errorf("query {a:%d b:%d} dropped point %+v (inserted before the query, never deleted)", ob.a, ob.b, p)
			}
		}
	}
	return nil
}

// live returns the writer's records that are live once every update has
// been acknowledged.
func (o *stampOracle) live() map[pathcache.Point]bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[pathcache.Point]bool)
	for p, s := range o.points {
		if s.insAck != 0 && s.delAck == 0 {
			out[p] = true
		}
	}
	return out
}
