package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"pathcache"
)

// The reference wire shapes: tagged structs whose encoding/json encoding
// defines the wire format. The append encoder must reproduce it byte for
// byte.

type pointRef struct {
	X  int64  `json:"x"`
	Y  int64  `json:"y"`
	ID uint64 `json:"id"`
}

type intervalRef struct {
	Lo int64  `json:"lo"`
	Hi int64  `json:"hi"`
	ID uint64 `json:"id"`
}

type ioRef struct {
	Reads     int64   `json:"reads"`
	Writes    int64   `json:"writes"`
	CacheHits int64   `json:"cache_hits"`
	Bound     float64 `json:"bound,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
}

type queryRef struct {
	Count     int           `json:"count"`
	Points    []pointRef    `json:"points,omitempty"`
	Intervals []intervalRef `json:"intervals,omitempty"`
	IO        ioRef         `json:"io"`
}

type searchRef struct {
	Found bool  `json:"found"`
	IO    ioRef `json:"io"`
}

type batchRef struct {
	Queries   int             `json:"queries"`
	Workers   int             `json:"workers"`
	Results   int             `json:"results"`
	Points    [][]pointRef    `json:"point_results,omitempty"`
	Intervals [][]intervalRef `json:"interval_results,omitempty"`
	IO        ioRef           `json:"io"`
}

type updateRef struct {
	Records int   `json:"records"`
	IO      ioRef `json:"io"`
}

type okRef struct {
	OK         bool `json:"ok"`
	Background bool `json:"background,omitempty"`
}

// pointsRef converts an answer to its wire shape: nil and empty both
// become an empty, non-nil slice, which encodes as [] inside a batch.
func pointsRef(pts []pathcache.Point) []pointRef {
	out := make([]pointRef, len(pts))
	for i, p := range pts {
		out[i] = pointRef{X: p.X, Y: p.Y, ID: p.ID}
	}
	return out
}

func intervalsRef(ivs []pathcache.Interval) []intervalRef {
	out := make([]intervalRef, len(ivs))
	for i, iv := range ivs {
		out[i] = intervalRef{Lo: iv.Lo, Hi: iv.Hi, ID: iv.ID}
	}
	return out
}

func ioRefOf(io ioJSON) ioRef {
	return ioRef{Reads: io.Reads, Writes: io.Writes, CacheHits: io.CacheHits, Bound: io.Bound, Ratio: io.Ratio}
}

// refOf maps a response to its reference shape.
func refOf(r response) any {
	switch v := r.(type) {
	case *queryResponse:
		return queryRef{Count: len(v.Points) + len(v.Intervals), Points: pointsRef(v.Points),
			Intervals: intervalsRef(v.Intervals), IO: ioRefOf(v.IO)}
	case *searchResponse:
		return searchRef{Found: v.Found, IO: ioRefOf(v.IO)}
	case *batchResponse:
		ref := batchRef{Queries: v.Queries, Workers: v.Workers, Results: v.Results, IO: ioRefOf(v.IO)}
		for _, pts := range v.Points {
			ref.Points = append(ref.Points, pointsRef(pts))
		}
		for _, ivs := range v.Intervals {
			ref.Intervals = append(ref.Intervals, intervalsRef(ivs))
		}
		return ref
	case *updateResponse:
		return updateRef{Records: v.Records, IO: ioRefOf(v.IO)}
	case *okResponse:
		return okRef{OK: v.OK, Background: v.Background}
	}
	panic("refOf: unknown response type")
}

// fuzzResponse builds one response of the shape selected by shape, with n
// records derived from (x, y, id) — wrapping arithmetic reaches both ends
// of every integer range.
func fuzzResponse(shape, n uint8, x, y int64, id uint64, io ioJSON) response {
	size := int(n % 24)
	pts := func(k int) []pathcache.Point {
		if k == 0 && n%2 == 0 {
			return nil
		}
		out := make([]pathcache.Point, k)
		for i := range out {
			out[i] = pathcache.Point{X: x + int64(i)*y, Y: y - int64(i), ID: id ^ uint64(i)}
		}
		return out
	}
	ivs := func(k int) []pathcache.Interval {
		if k == 0 && n%2 == 0 {
			return nil
		}
		out := make([]pathcache.Interval, k)
		for i := range out {
			out[i] = pathcache.Interval{Lo: y + int64(i)*x, Hi: x - int64(i), ID: id + uint64(i)}
		}
		return out
	}
	// Batch answers: n%5 queries, every third one empty.
	inner := int(n % 5)
	switch shape % 7 {
	case 0:
		return &queryResponse{Points: pts(size), IO: io}
	case 1:
		return &queryResponse{Intervals: ivs(size), IO: io}
	case 2:
		return &searchResponse{Found: n%2 == 1, IO: io}
	case 3:
		r := &batchResponse{Queries: inner, Workers: int(x % 64), Results: size, IO: io}
		for i := 0; i < inner; i++ {
			r.Points = append(r.Points, pts((size+i)*(i%3)))
		}
		return r
	case 4:
		r := &batchResponse{Queries: inner, Workers: int(y % 64), Results: size, IO: io}
		for i := 0; i < inner; i++ {
			r.Intervals = append(r.Intervals, ivs((size+i)*(i%3)))
		}
		return r
	case 5:
		return &updateResponse{Records: int(x), IO: io}
	default:
		return &okResponse{OK: n%3 != 0, Background: n%2 == 1}
	}
}

// FuzzResponseEncode holds the append encoder to encoding/json: for every
// response shape, appendJSON plus the encoder's newline must equal
// json.NewEncoder(...).Encode of the reference shape, and writeJSON must
// send exactly those bytes with a matching Content-Length.
func FuzzResponseEncode(f *testing.F) {
	type seed struct {
		shape, n     uint8
		x, y         int64
		id           uint64
		reads        int64
		bound, ratio float64
	}
	var seeds []seed
	for shape := uint8(0); shape < 7; shape++ {
		seeds = append(seeds,
			seed{shape, 0, 0, 0, 0, 0, 0, 0}, // nil results
			seed{shape, 1, 0, 0, 0, 0, 0, 0}, // empty, non-nil results
			seed{shape, 8, 1, 2, 3, 4, 0, 0}, // batch answers with empty inner lists
			seed{shape, 3, math.MinInt64, math.MaxInt64, math.MaxUint64, math.MinInt64, 1e-7, 1e21},
			seed{shape, 23, -5, math.MinInt64, 0, math.MaxInt64, 123456789.5, 1e-7},
			seed{shape, 7, 100, -1, 1 << 63, 9, 1e21, 123456789.5},
			seed{shape, 12, 7, 7, 7, 7, 5e-324, math.MaxFloat64},
		)
	}
	// One-record point and interval answers at every digit-length
	// boundary: a short randomized run may never land on one.
	for _, v := range digitBoundaries() {
		for shape := uint8(0); shape < 2; shape++ {
			seeds = append(seeds, seed{shape, 1, v.i, -v.i, v.u, v.i, 0, 0})
		}
	}
	for _, s := range seeds {
		f.Add(s.shape, s.n, s.x, s.y, s.id, s.reads, s.bound, s.ratio)
	}

	f.Fuzz(func(t *testing.T, shape, n uint8, x, y int64, id uint64, reads int64, bound, ratio float64) {
		// encoding/json refuses NaN and ±Inf outright; the obs registry
		// never produces them, so there is no behaviour to match.
		if math.IsNaN(bound) || math.IsInf(bound, 0) || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
			return
		}
		io := ioJSON{Reads: reads, Writes: -reads, CacheHits: int64(id), Bound: bound, Ratio: ratio}
		r := fuzzResponse(shape, n, x, y, id, io)

		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(refOf(r)); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if got := append(r.appendJSON(nil), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("append encoder differs from encoding/json\n got: %s\nwant: %s", got, want.Bytes())
		}

		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, r)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("writeJSON body differs from encoding/json\n got: %s\nwant: %s", rec.Body.Bytes(), want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, want.Len())
		}
	})
}

// digitBoundary is one value at a digit-length boundary, as the int64 and
// uint64 fields carry it: i is u where u fits an int64, and otherwise
// u's wrapped int64 value.
type digitBoundary struct {
	i int64
	u uint64
}

// digitBoundaries lists 10^k-1, 10^k and 10^k+1 for k = 0..19, with the
// three extremes MinInt64, MaxInt64 and MaxUint64.
func digitBoundaries() []digitBoundary {
	out := []digitBoundary{{math.MinInt64, 1 << 63}, {math.MaxInt64, math.MaxInt64}, {-1, math.MaxUint64}}
	p := uint64(1)
	for k := 0; k <= 19; k++ {
		for _, u := range []uint64{p - 1, p, p + 1} {
			out = append(out, digitBoundary{int64(u), u})
		}
		p *= 10
	}
	return out
}

// TestEncodeDigitBoundaries holds appendPoints and appendIntervals to
// encoding/json at every digit-length boundary of both signs, where the
// digit kernel switches between its 8-digit word, its 1- or 2-digit head
// and its longer prefixes.
func TestEncodeDigitBoundaries(t *testing.T) {
	var pts []pathcache.Point
	var ivs []pathcache.Interval
	for _, v := range digitBoundaries() {
		pts = append(pts, pathcache.Point{X: v.i, Y: -v.i, ID: v.u})
		ivs = append(ivs, pathcache.Interval{Lo: -v.i, Hi: v.i, ID: v.u})
	}
	want, err := json.Marshal(pointsRef(pts))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendPoints(nil, pts); !bytes.Equal(got, want) {
		t.Fatalf("appendPoints differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
	if want, err = json.Marshal(intervalsRef(ivs)); err != nil {
		t.Fatal(err)
	}
	if got := appendIntervals(nil, ivs); !bytes.Equal(got, want) {
		t.Fatalf("appendIntervals differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// reportResponse is a 2,000-point query answer with served-benchmark-sized
// coordinates — the report-sharded workload's response.
func reportResponse() *queryResponse {
	pts := make([]pathcache.Point, 2000)
	for i := range pts {
		pts[i] = pathcache.Point{X: int64(i) * 536_870, Y: 1<<30 - int64(i)*1_237, ID: uint64(i)*4_999 + 1}
	}
	return &queryResponse{Points: pts, IO: ioJSON{Reads: 31, CacheHits: 2, Bound: 24.5, Ratio: 31 / 24.5}}
}

// discardWriter is a ResponseWriter that drops the body; its header map is
// reused across requests.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestEncodeAllocs caps the append encoder's allocations per 2,000-point
// response: into a warm buffer, none. (writeJSON adds only its header
// values; BenchmarkEncodeQueryResponse reports them. Its pooled buffer is
// not asserted here because the race detector drops sync.Pool items at
// random.)
func TestEncodeAllocs(t *testing.T) {
	r := reportResponse()
	buf := r.appendJSON(nil)
	if n := testing.AllocsPerRun(50, func() { buf = r.appendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("appendJSON: %.1f allocs per 2,000-point response into a warm buffer, want 0", n)
	}
}

// BenchmarkEncodeQueryResponse encodes and writes a 2,000-point response.
func BenchmarkEncodeQueryResponse(b *testing.B) {
	r := reportResponse()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, r)
	}
}
