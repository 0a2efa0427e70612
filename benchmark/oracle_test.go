package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pathcache"
)

// bruteForce is the reference the grid oracle is checked against.
func bruteForce(pts []pathcache.Point, a, b int64) ([]pathcache.Point, digest) {
	var out []pathcache.Point
	var d digest
	for _, p := range pts {
		if p.X >= a && p.Y >= b {
			out = append(out, p)
			d.add(p)
		}
	}
	return out, d
}

func testPoints(n int) []pathcache.Point {
	pts := uniformPoints(rand.New(rand.NewSource(7)), n, 1)
	// Points on the domain's edges and on cell boundaries.
	pts = append(pts,
		pathcache.Point{X: 0, Y: 0, ID: uint64(n + 1)},
		pathcache.Point{X: domain - 1, Y: domain - 1, ID: uint64(n + 2)},
		pathcache.Point{X: 1 << 20, Y: 1 << 20, ID: uint64(n + 3)},
		pathcache.Point{X: 1 << 20, Y: 1 << 20, ID: uint64(n + 4)}, // a duplicate position
	)
	return pts
}

func TestGridOracleMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 10, 5000} {
		pts := testPoints(n)
		g := newGridOracle(pts)
		rng := rand.New(rand.NewSource(int64(n)))
		corners := [][2]int64{
			{0, 0}, {-5, -5}, {domain, 0}, {0, domain}, {domain - 1, domain - 1},
			{1 << 20, 1 << 20}, {1<<20 + 1, 1 << 20}, {math.MinInt64, math.MaxInt64},
		}
		for i := 0; i < 2000; i++ {
			corners = append(corners, [2]int64{rng.Int63n(domain), rng.Int63n(domain)})
		}
		// Generated corners hold exactly 20 points, or every point right
		// of a when fewer lie there.
		s := spec{results: 20, aMax: domain - 1}
		byY := sortedByY(pts)
		for i := 0; i < 500; i++ {
			a, b := s.corner(rng, byY)
			corners = append(corners, [2]int64{a, b})
			got, _ := bruteForce(pts, a, b)
			right, _ := bruteForce(pts, a, math.MinInt64)
			if len(got) != min(20, len(right)) {
				t.Fatalf("n=%d corner {a:%d b:%d} holds %d points, %d lie right of a", n, a, b, len(got), len(right))
			}
		}
		for _, c := range corners {
			_, want := bruteForce(pts, c[0], c[1])
			if got := g.query(c[0], c[1]); got != want {
				t.Fatalf("n=%d query {a:%d b:%d}: grid %+v, brute force %+v", n, c[0], c[1], got, want)
			}
		}
		if _, all := bruteForce(pts, 0, 0); g.all != all {
			t.Fatalf("n=%d: all %+v, want %+v", n, g.all, all)
		}
	}
}

func TestCheckAnswerCatchesCorruption(t *testing.T) {
	pts := testPoints(20000)
	g := newGridOracle(pts)
	a, b := int64(domain/2), int64(domain/2+domain/4)
	good, want := bruteForce(pts, a, b)
	if len(good) < 3 {
		t.Fatalf("query too small for the test: %d results", len(good))
	}
	if got := g.query(a, b); got != want {
		t.Fatalf("oracle disagrees with brute force")
	}
	if _, err := checkAnswer(a, b, len(good), good, want, math.MaxUint64); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	clone := func() []pathcache.Point { return append([]pathcache.Point(nil), good...) }
	for _, tc := range []struct {
		name   string
		mutate func([]pathcache.Point) []pathcache.Point
		count  int // 0: len of the mutated answer
	}{
		{"dropped record", func(p []pathcache.Point) []pathcache.Point { return p[1:] }, 0},
		{"duplicated record", func(p []pathcache.Point) []pathcache.Point { return append(p, p[0]) }, 0},
		{"moved record, still in range", func(p []pathcache.Point) []pathcache.Point { p[0].X++; return p }, 0},
		{"wrong id", func(p []pathcache.Point) []pathcache.Point { p[1].ID += 1000; return p }, 0},
		{"swapped ids", func(p []pathcache.Point) []pathcache.Point { p[0].ID, p[1].ID = p[1].ID, p[0].ID; return p }, 0},
		{"out of range", func(p []pathcache.Point) []pathcache.Point { p[2].Y = b - 1; return p }, 0},
		{"extra record", func(p []pathcache.Point) []pathcache.Point {
			return append(p, pathcache.Point{X: domain - 2, Y: domain - 2, ID: 99})
		}, 0},
		{"count field disagrees", func(p []pathcache.Point) []pathcache.Point { return p }, len(good) + 1},
	} {
		got := tc.mutate(clone())
		count := tc.count
		if count == 0 {
			count = len(got)
		}
		if _, err := checkAnswer(a, b, count, got, want, math.MaxUint64); err == nil {
			t.Errorf("%s: corrupted answer accepted", tc.name)
		}
	}
}

func TestCheckAnswerSplitsWriterRecords(t *testing.T) {
	base := []pathcache.Point{{X: 5, Y: 5, ID: 1}, {X: 9, Y: 9, ID: 2}}
	var want digest
	for _, p := range base {
		want.add(p)
	}
	writer := pathcache.Point{X: 7, Y: 7, ID: 3}
	extra, err := checkAnswer(1, 1, 3, append(base, writer), want, 2)
	if err != nil || len(extra) != 1 || extra[0] != writer {
		t.Fatalf("checkAnswer = %v, %v; want the writer's record back", extra, err)
	}
}

func TestStampOracle(t *testing.T) {
	p := pathcache.Point{X: 10, Y: 10, ID: 100}
	q := pathcache.Point{X: 20, Y: 20, ID: 101}
	o := newStampOracle()
	o.stamp(p, func(s *stamps, at uint64) { s.insSubmit = at }) // 1
	o.stamp(p, func(s *stamps, at uint64) { s.insAck = at })    // 2
	start := o.tick()                                           // 3: a query starts
	o.stamp(q, func(s *stamps, at uint64) { s.insSubmit = at }) // 4: q races the query
	end := o.tick()                                             // 5
	o.stamp(q, func(s *stamps, at uint64) { s.insAck = at })    // 6
	o.stamp(p, func(s *stamps, at uint64) { s.delSubmit = at }) // 7
	o.stamp(p, func(s *stamps, at uint64) { s.delAck = at })    // 8
	late := o.tick()                                            // 9: a query after p's delete

	for _, tc := range []struct {
		name string
		ob   observation
		ok   bool
	}{
		{"sees p, q in flight", observation{a: 0, b: 0, got: []pathcache.Point{p}, start: start, end: end}, true},
		{"sees p and in-flight q", observation{a: 0, b: 0, got: []pathcache.Point{p, q}, start: start, end: end}, true},
		{"drops p", observation{a: 0, b: 0, got: nil, start: start, end: end}, false},
		{"p outside the quadrant", observation{a: 15, b: 0, got: nil, start: start, end: end}, true},
		{"sees q before it was submitted", observation{a: 0, b: 0, got: []pathcache.Point{p, q}, start: 1, end: 2}, false},
		{"sees deleted p", observation{a: 0, b: 0, got: []pathcache.Point{p, q}, start: late, end: late + 1}, false},
		{"after the delete", observation{a: 0, b: 0, got: []pathcache.Point{q}, start: late, end: late + 1}, true},
		{"phantom", observation{a: 0, b: 0, got: []pathcache.Point{p, {X: 1, Y: 1, ID: 7}}, start: start, end: end}, false},
	} {
		err := o.checkAll([]observation{tc.ob})
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkAll = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if live := o.live(); len(live) != 1 || !live[q] {
		t.Errorf("live = %v, want just %+v", live, q)
	}
}

// TestDecodeQueryMatchesEncodingJSON checks the fast path against
// encoding/json on pcserve-shaped bodies, and that other shapes still
// decode through the fallback.
func TestDecodeQueryMatchesEncodingJSON(t *testing.T) {
	bodies := []string{
		`{"count":0,"io":{"reads":3,"writes":0,"cache_hits":0,"bound":4.5,"ratio":0.6666666666666666}}` + "\n",
		`{"count":2,"points":[{"x":1,"y":2,"id":3},{"x":-4,"y":5,"id":6}],"io":{"reads":7,"writes":1,"cache_hits":2}}` + "\n",
		` { "io" : { "ratio" : 1e-3 , "reads" : 1 } , "points" : [ { "id" : 9 , "y" : 8 , "x" : 7 } ] , "count" : 1 } `,
		`{"count":1,"points":[{"x":1,"y":2,"id":3}],"io":{"reads":1},"extra":true}`, // unknown key: fallback
		`{"count":1,"points":[{"x":1.5,"y":2,"id":3}],"io":{"reads":1}}`,            // float coordinate: fallback errors
		`{"count":1,"points":[{"x":1,"y":2,"id":3}]`,                                // truncated
		`{"count":1,"points":[{"x":1,"y":2,"id":3}],"io":{"reads":1}}{"count":2}`,   // trailing data
	}
	for _, body := range bodies {
		var want queryResp
		wantErr := json.Unmarshal([]byte(body), &want)
		got := queryResp{Points: []pathcache.Point{{X: 99}}} // stale contents must not leak
		err := decodeQuery([]byte(body), &got)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: decodeQuery err %v, encoding/json err %v", strings.TrimSpace(body), err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(want.Points) == 0 {
			want.Points = nil
		}
		if len(got.Points) == 0 {
			got.Points = nil
		}
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		if string(w) != string(g) {
			t.Errorf("%s: decodeQuery %s, encoding/json %s", strings.TrimSpace(body), g, w)
		}
	}
}
