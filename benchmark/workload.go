package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"pathcache"
)

const (
	// domain bounds both coordinates: points are uniform over [0, domain)².
	domain = 1 << 30
	// pageSize is the page size of every store (the library default).
	pageSize = 4096
	// recordBytes is the size of one record (X, Y, ID) in user terms; the
	// denominator of space amplification.
	recordBytes = 24
)

// spec is one workload at one scale. The four named workloads are the
// full-size instances of specFor; tests shrink n and the request counts.
type spec struct {
	name string
	why  string

	n        int // records the store is built from, IDs 1..n
	shards   int // > 1: a sharded twosided directory; otherwise one file
	lsm      bool
	memtable int // lsm MemtableEntries

	results int     // expected results per query
	aMax    int64   // query corner a is uniform in [0, aMax)
	hot     int     // > 0: queries draw from this many fixed corners, Zipf-distributed
	zipfS   float64 // Zipf exponent of the hot corners
	zipfV   float64 // Zipf rank offset: P(rank k) ∝ (zipfV + k)^-zipfS

	rounds int
	warmup int // untimed requests per round, half from each client
	// rate sizes a round's request lists from -seconds. On the static
	// stores it is queries per second, a little below what a quiet machine
	// serves: each round is time-boxed, and a client that reaches the end
	// of its list starts it again, so a longer list would only add answers
	// to compute before the rounds. On lsm-mixed it is the nominal
	// updates per second, and a round lasts until the writer's fixed list
	// is done, so the store it leaves behind repeats exactly for a seed and
	// run length.
	rate float64
}

var workloadNames = []string{"search-uniform", "search-hot", "report-sharded", "lsm-mixed"}

func specFor(name string) (spec, error) {
	const searchN = 1_000_000
	switch name {
	case "search-uniform":
		return spec{
			name: name, why: "search term dominates; the working set, one 1M-point file of ~245 MB, is far larger than any in-process cache",
			n: searchN, results: 20, aMax: domain - 40*domain/searchN,
			rounds: 20, warmup: 1000, rate: 20000,
		}, nil
	case "search-hot":
		return spec{
			name: name, why: "same file, 1,000 Zipf-drawn corners: a working set a small page cache holds",
			n: searchN, results: 20, aMax: domain - 40*domain/searchN, hot: 1000, zipfS: 1.1, zipfV: 10,
			rounds: 20, warmup: 1000, rate: 20000,
		}, nil
	case "report-sharded":
		return spec{
			name: name, why: "output term dominates: ~2,000 results gathered from 3-4 shards, merged and encoded",
			n: 250_000, shards: 4, results: 2000, aMax: domain / 2,
			rounds: 6, warmup: 100, rate: 1800,
		}, nil
	case "lsm-mixed":
		return spec{
			name: name, why: "reads beside fsynced WAL appends, inline flushes and compactions of the write tier",
			n: 20_000, lsm: true, memtable: 1024, results: 20, aMax: domain - 40*domain/20_000,
			rounds: 10, warmup: 200, rate: 4500,
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Request kinds.
const (
	opQuery = iota
	opInsert
	opDelete
)

// request is one pre-encoded HTTP request plus what the oracle needs to
// check its answer.
type request struct {
	op   int
	a, b int64           // query corner
	p    pathcache.Point // update record
	want digest          // expected base-record digest of a query
	body []byte
}

func (r request) path() string {
	switch r.op {
	case opInsert:
		return "/v1/insert"
	case opDelete:
		return "/v1/delete"
	}
	return "/v1/query"
}

func queryRequest(a, b int64) request {
	body := `{"a":` + strconv.FormatInt(a, 10) + `,"b":` + strconv.FormatInt(b, 10) + `}`
	return request{op: opQuery, a: a, b: b, body: []byte(body)}
}

func updateRequest(op int, p pathcache.Point) request {
	body := `{"x":` + strconv.FormatInt(p.X, 10) + `,"y":` + strconv.FormatInt(p.Y, 10) +
		`,"id":` + strconv.FormatUint(p.ID, 10) + `}`
	return request{op: op, p: p, body: []byte(body)}
}

// subRand derives an independent generator for one purpose of one seed.
func subRand(seed int64, purpose ...int64) *rand.Rand {
	z := splitmix64(uint64(seed))
	for _, p := range purpose {
		z = splitmix64(z ^ uint64(p))
	}
	return rand.New(rand.NewSource(int64(z >> 1)))
}

// Purposes passed to subRand.
const (
	purposePoints = iota + 1
	purposeCorners
	purposeRound
	purposeUpdates
)

// uniformPoints returns n points uniform over [0, domain)² with IDs
// firstID, firstID+1, ...
func uniformPoints(rng *rand.Rand, n int, firstID uint64) []pathcache.Point {
	pts := make([]pathcache.Point, n)
	for i := range pts {
		pts[i] = pathcache.Point{X: rng.Int63n(domain), Y: rng.Int63n(domain), ID: firstID + uint64(i)}
	}
	return pts
}

// corner draws a query corner: a uniform in [0, aMax), and b the Y of the
// s.results-th highest point with X >= a, so the quadrant holds exactly
// s.results points (every point right of a, if fewer lie there). byY is
// the points sorted by Y, highest first. These quadrants all touch the
// domain's top-right corner, so placing b by the expected density instead
// let one seed's luck there move search-hot's mean answer from 14 points
// to 23, and its time per query with it.
func (s spec) corner(rng *rand.Rand, byY []pathcache.Point) (int64, int64) {
	a := rng.Int63n(s.aMax)
	found := 0
	for _, p := range byY {
		if p.X >= a {
			if found++; found == s.results {
				return a, p.Y
			}
		}
	}
	return a, 0
}

// sortedByY returns the points sorted by Y, highest first.
func sortedByY(pts []pathcache.Point) []pathcache.Point {
	out := append([]pathcache.Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Y > out[j].Y })
	return out
}

// plan is everything a run sends, generated from the seed alone.
type plan struct {
	spec  spec
	seed  int64
	slice time.Duration // measured time of one round on the static stores
	pts   []pathcache.Point
	// rounds[r][c] is client c's list in round r: warmup/2 warm-up
	// requests, then the measured ones.
	rounds [][2][]request
	oracle *gridOracle
}

// baseIDs is the highest ID among the store's built records: records
// above it in an answer are the lsm writer's. Static stores have no writer.
func (pl *plan) baseIDs() uint64 {
	if pl.spec.lsm {
		return uint64(pl.spec.n)
	}
	return math.MaxUint64
}

// makePlan generates the points, every round's request lists and their
// expected answers for a run of the given length.
func makePlan(s spec, seed int64, seconds float64) *plan {
	pl := &plan{spec: s, seed: seed, slice: time.Duration(seconds / float64(s.rounds) * float64(time.Second))}
	pl.pts = uniformPoints(subRand(seed, purposePoints), s.n, 1)
	pl.oracle = newGridOracle(pl.pts)
	byY := sortedByY(pl.pts)
	measured := int(s.rate * seconds / float64(s.rounds))
	if measured < 2 {
		measured = 2
	}
	var corners [][2]int64
	if s.hot > 0 {
		rng := subRand(seed, purposeCorners)
		corners = make([][2]int64, s.hot)
		for i := range corners {
			corners[i][0], corners[i][1] = s.corner(rng, byY)
		}
	}
	var updates []request
	if s.lsm {
		updates = updateList(subRand(seed, purposeUpdates), measured, uint64(s.n)+1)
	}
	for r := 0; r < s.rounds; r++ {
		var lists [2][]request
		for c := 0; c < 2; c++ {
			rng := subRand(seed, purposeRound, int64(r), int64(c))
			var zipf *rand.Zipf
			if s.hot > 0 {
				zipf = rand.NewZipf(rng, s.zipfS, s.zipfV, uint64(s.hot-1))
			}
			next := func() request {
				var a, b int64
				if zipf != nil {
					k := zipf.Uint64()
					a, b = corners[k][0], corners[k][1]
				} else {
					a, b = s.corner(rng, byY)
				}
				q := queryRequest(a, b)
				q.want = pl.oracle.query(a, b)
				return q
			}
			for i := 0; i < s.warmup/2; i++ {
				lists[c] = append(lists[c], next())
			}
			switch {
			case s.lsm && c == 0:
				lists[c] = append(lists[c], updates...)
			case s.lsm:
				// The reader cycles through its list until the writer
				// finishes.
				for i := 0; i < measured; i++ {
					lists[c] = append(lists[c], next())
				}
			default:
				for i := 0; i < measured/2; i++ {
					lists[c] = append(lists[c], next())
				}
			}
		}
		pl.rounds = append(pl.rounds, lists)
	}
	return pl
}

// updateList returns count updates of fresh records with IDs from firstID:
// inserts, and every 4th update a delete of one of the list's own live
// inserts.
func updateList(rng *rand.Rand, count int, firstID uint64) []request {
	var out []request
	var live []pathcache.Point
	id := firstID
	for len(out) < count {
		if len(out)%4 == 3 && len(live) > 0 {
			i := rng.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, updateRequest(opDelete, p))
			continue
		}
		p := pathcache.Point{X: rng.Int63n(domain), Y: rng.Int63n(domain), ID: id}
		id++
		live = append(live, p)
		out = append(out, updateRequest(opInsert, p))
	}
	return out
}

// buildStore builds the workload's store at path (a file, or a directory
// for sharded stores) through the public build API and returns the open
// index. opts carries the trace hooks of the traced run; nil otherwise.
func buildStore(s spec, pts []pathcache.Point, path string, opts *pathcache.Options) (pathcache.Index, error) {
	if opts == nil {
		opts = &pathcache.Options{}
	}
	o := *opts
	o.PageSize = pageSize
	switch {
	case s.lsm:
		o.Path, o.MemtableEntries = path, s.memtable
		return pathcache.BuildDynamic("twosided", pts, &o)
	case s.shards > 1:
		return pathcache.BuildShardedPoints(path, "twosided", pts,
			pathcache.ShardPlan{Shards: s.shards, Scheme: pathcache.SchemeSegmented}, &o)
	default:
		o.Path = path
		return pathcache.NewTwoSidedIndex(pts, pathcache.SchemeSegmented, &o)
	}
}

// storePath names the store of a workload under dir.
func storePath(s spec, dir string) string {
	if s.shards > 1 {
		return filepath.Join(dir, s.name+".shards")
	}
	return filepath.Join(dir, s.name+".pc")
}

// diskBytes sums the sizes of the regular files at path (a file or a
// directory tree).
func diskBytes(path string) (int64, error) {
	var total int64
	err := filepath.Walk(path, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
