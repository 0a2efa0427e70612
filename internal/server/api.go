package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"pathcache"
)

// The wire protocol: every operation is a POST with a small JSON body and
// a JSON response. Decoding is strict — unknown fields, trailing garbage,
// oversized bodies and oversized batches are all 4xx, decided before any
// store work happens — so a malformed request can never reach the index
// (FuzzServerRequestDecode pins exactly that).

// apiError is the typed failure every handler returns: an HTTP status, a
// stable machine-readable code, and a human-readable message. Every
// failure mode of the service maps onto one — a request either succeeds
// or carries a typed error, never a wrong answer.
type apiError struct {
	Status     int    `json:"-"`
	Code       string `json:"code"`
	Message    string `json:"error"`
	RetryAfter int    `json:"-"` // seconds; emitted as a Retry-After header when > 0
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// The error codes the service emits. Tests assert on these, so they are
// part of the wire contract.
const (
	codeBadRequest       = "bad_request"        // 400: malformed body, unknown fields, bad ranges
	codeBatchTooLarge    = "batch_too_large"    // 400: batch above Config.MaxBatch
	codeUnsupportedShape = "unsupported_shape"  // 400: operation the index kind cannot answer
	codeReadOnlyKind     = "read_only_kind"     // 400: write op against a static kind
	codeNotFound         = "not_found"          // 404: unknown route
	codeMethodNotAllowed = "method_not_allowed" // 405
	codeQuotaExhausted   = "quota_exhausted"    // 429: per-client token bucket empty
	codeOverloaded       = "overloaded"         // 429: max-inflight ceiling hit
	codeDraining         = "draining"           // 503: received during graceful drain
	codeClosed           = "closed"             // 503: handle closed underneath the server
	codeDeadlineExceeded = "deadline_exceeded"  // 504: per-request deadline expired
	codeStoreFault       = "store_fault"        // 500: the store failed mid-request
	codeBoundExceeded    = "bound_exceeded"     // 500: strict theorem-bound sentinel tripped
	codeReloadFailed     = "reload_failed"      // 500: hot reload could not open the file
)

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: codeBadRequest, Message: fmt.Sprintf(format, args...)}
}

func errUnsupported(ix pathcache.Index, op string) *apiError {
	return &apiError{
		Status:  http.StatusBadRequest,
		Code:    codeUnsupportedShape,
		Message: fmt.Sprintf("index kind %q answers %s queries, not %s", ix.Kind(), ix.Shape(), op),
	}
}

// mapStoreErr converts an index operation's failure to its typed wire
// error. The distinction matters to clients: a bound breach is a sentinel
// tripping on a correct answer, a store fault is an I/O failure whose
// request must not be trusted.
func mapStoreErr(err error) *apiError {
	if errors.Is(err, pathcache.ErrBoundExceeded) {
		return &apiError{Status: http.StatusInternalServerError, Code: codeBoundExceeded, Message: err.Error()}
	}
	if errors.Is(err, pathcache.ErrHandleClosed) {
		return &apiError{Status: http.StatusServiceUnavailable, Code: codeClosed, Message: err.Error()}
	}
	return &apiError{Status: http.StatusInternalServerError, Code: codeStoreFault, Message: err.Error()}
}

// decodeStrict decodes body into v: unknown fields, trailing data and
// syntax errors are all bad_request. An empty body decodes the zero value
// (so bodyless POSTs to /v1/flush and friends work).
func decodeStrict(body []byte, v any) *apiError {
	if len(bytes.TrimSpace(body)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return errBadRequest("trailing data after JSON body")
	}
	return nil
}

// readBody reads at most max bytes of the request body into a pooled
// buffer, returned with putBuf once the body is decoded; one byte over is
// bad_request without reading further. The buffer starts at the declared
// Content-Length plus the one byte that lets the reader see EOF, so a
// well-formed body is read in place without growing.
func readBody(r *http.Request, max int64) (*[]byte, *apiError) {
	limit := max + 1
	size := int64(512)
	if r.ContentLength >= 0 {
		size = r.ContentLength + 1
	}
	bp := getBuf(int(min(size, limit)))
	b := *bp
	for int64(len(b)) < limit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		room := min(int64(cap(b)), limit)
		n, err := r.Body.Read(b[len(b):room])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b
			putBuf(bp)
			return nil, errBadRequest("reading request body: %v", err)
		}
	}
	*bp = b
	if int64(len(b)) > max {
		putBuf(bp)
		return nil, errBadRequest("request body exceeds %d bytes", max)
	}
	return bp, nil
}

// Request shapes. Required fields are pointers so "absent" and "zero" are
// distinguishable — a 2-sided query for the origin corner is {"a":0,"b":0},
// while {} is a 400. The flat shapes carry unexported storage the fast
// decoder (decode.go) points those fields at, so decoding them allocates
// nothing; encoding/json ignores it.

// queryReq covers /v1/query for both 2-sided ({a, b}) and 3-sided
// ({a1, a2, b}) kinds; the handler enforces the shape its kind answers.
type queryReq struct {
	A  *int64 `json:"a,omitempty"`
	B  *int64 `json:"b,omitempty"`
	A1 *int64 `json:"a1,omitempty"`
	A2 *int64 `json:"a2,omitempty"`

	flat [4]int64
}

type windowReq struct {
	X1 *int64 `json:"x1"`
	X2 *int64 `json:"x2"`
	Y1 *int64 `json:"y1"`
	Y2 *int64 `json:"y2"`

	flat [4]int64
}

// validate checks presence and range order; a window with x1 > x2 is a
// malformed range, not an empty result.
func (q *windowReq) validate() *apiError {
	if q.X1 == nil || q.X2 == nil || q.Y1 == nil || q.Y2 == nil {
		return errBadRequest("window query needs x1, x2, y1, y2")
	}
	if *q.X1 > *q.X2 || *q.Y1 > *q.Y2 {
		return errBadRequest("malformed window: need x1 <= x2 and y1 <= y2")
	}
	return nil
}

type stabReq struct {
	Q *int64 `json:"q"`

	flat [1]int64
}

// recordReq names one exact record — the write-path identity and the
// /v1/search probe target.
type recordReq struct {
	X  *int64  `json:"x"`
	Y  *int64  `json:"y"`
	ID *uint64 `json:"id"`

	flat   [3]int64
	flatID uint64
}

func (q *recordReq) validate() *apiError {
	if q.X == nil || q.Y == nil || q.ID == nil {
		return errBadRequest("record needs x, y, id")
	}
	return nil
}

func (q *recordReq) point() pathcache.Point {
	return pathcache.Point{X: *q.X, Y: *q.Y, ID: *q.ID}
}

type queryBatchReq struct {
	Queries []queryReq `json:"queries"`
	Workers int        `json:"workers,omitempty"`
}

type windowBatchReq struct {
	Queries []windowReq `json:"queries"`
	Workers int         `json:"workers,omitempty"`
}

type stabBatchReq struct {
	Qs      []int64 `json:"qs"`
	Workers int     `json:"workers,omitempty"`
}

type compactReq struct {
	Background bool `json:"background,omitempty"`
}

// reloadReq selects what /admin/reload swaps: the whole store (empty
// body), or one shard of a sharded store.
type reloadReq struct {
	Shard *int `json:"shard,omitempty"`
}

// Response shapes. Every result-bearing response encodes itself with
// appendJSON, straight from the engine's []pathcache.Point and
// []pathcache.Interval: no per-request copy into tagged structs and no
// reflection. The bytes are exactly what encoding/json produces for the
// wire shape in each type's comment — field order, omitempty and number
// formatting included — which FuzzResponseEncode pins against
// encoding/json itself. Error and /varz bodies still go through
// encoding/json; writeJSON sends both kinds.

// response is a result-bearing response body. appendJSON appends its JSON
// encoding, without the newline json.Encoder ends a value with.
type response interface {
	appendJSON(b []byte) []byte
}

// ioJSON is the per-request exact I/O attribution: the op-scoped counter's
// page transfers, never a global diff, so load tests can sum per-op counts
// straight off the responses. Wire shape:
// {"reads", "writes", "cache_hits", "bound" and "ratio" (omitted when 0)}.
// Bound and Ratio are finite: the obs registry derives them from a
// positive theorem bound.
type ioJSON struct {
	Reads     int64
	Writes    int64
	CacheHits int64
	Bound     float64
	Ratio     float64
}

func ioOf(p pathcache.IOProfile) ioJSON {
	return ioJSON{Reads: p.Reads, Writes: p.Writes, CacheHits: p.CacheHits, Bound: p.Bound, Ratio: p.BoundRatio}
}

func ioOfBatch(st pathcache.BatchStats) ioJSON {
	return ioJSON{Reads: st.Reads, Writes: st.Writes, CacheHits: st.CacheHits}
}

func (io ioJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"reads":`...)
	b = strconv.AppendInt(b, io.Reads, 10)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, io.Writes, 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, io.CacheHits, 10)
	if io.Bound != 0 {
		b = append(b, `,"bound":`...)
		b = appendFloat(b, io.Bound)
	}
	if io.Ratio != 0 {
		b = append(b, `,"ratio":`...)
		b = appendFloat(b, io.Ratio)
	}
	return append(b, '}')
}

// queryResponse answers /v1/query, /v1/window and /v1/stab. Wire shape:
// {"count", "points" or "intervals" (omitted when empty), "io"}.
type queryResponse struct {
	Points    []pathcache.Point
	Intervals []pathcache.Interval
	IO        ioJSON
}

func (r *queryResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(r.Points)+len(r.Intervals)), 10)
	if len(r.Points) > 0 {
		b = append(b, `,"points":`...)
		b = appendPoints(b, r.Points)
	}
	if len(r.Intervals) > 0 {
		b = append(b, `,"intervals":`...)
		b = appendIntervals(b, r.Intervals)
	}
	b = append(b, `,"io":`...)
	b = r.IO.appendJSON(b)
	return append(b, '}')
}

// searchResponse answers /v1/search. Wire shape: {"found", "io"}.
type searchResponse struct {
	Found bool
	IO    ioJSON
}

func (r *searchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"found":`...)
	b = strconv.AppendBool(b, r.Found)
	b = append(b, `,"io":`...)
	b = r.IO.appendJSON(b)
	return append(b, '}')
}

// batchResponse answers the /batch endpoints. Wire shape: {"queries",
// "workers", "results", "point_results" or "interval_results" (omitted
// when empty; an empty answer inside is []), "io"}.
type batchResponse struct {
	Queries   int
	Workers   int
	Results   int
	Points    [][]pathcache.Point
	Intervals [][]pathcache.Interval
	IO        ioJSON
}

func (r *batchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"queries":`...)
	b = strconv.AppendInt(b, int64(r.Queries), 10)
	b = append(b, `,"workers":`...)
	b = strconv.AppendInt(b, int64(r.Workers), 10)
	b = append(b, `,"results":`...)
	b = strconv.AppendInt(b, int64(r.Results), 10)
	if len(r.Points) > 0 {
		b = append(b, `,"point_results":[`...)
		for i, pts := range r.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPoints(b, pts)
		}
		b = append(b, ']')
	}
	if len(r.Intervals) > 0 {
		b = append(b, `,"interval_results":[`...)
		for i, ivs := range r.Intervals {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIntervals(b, ivs)
		}
		b = append(b, ']')
	}
	b = append(b, `,"io":`...)
	b = r.IO.appendJSON(b)
	return append(b, '}')
}

// updateResponse answers /v1/insert and /v1/delete. Wire shape:
// {"records", "io"}.
type updateResponse struct {
	Records int
	IO      ioJSON
}

func (r *updateResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"records":`...)
	b = strconv.AppendInt(b, int64(r.Records), 10)
	b = append(b, `,"io":`...)
	b = r.IO.appendJSON(b)
	return append(b, '}')
}

// okResponse acknowledges maintenance. Wire shape: {"ok", "background"
// (omitted when false)}.
type okResponse struct {
	OK         bool
	Background bool
}

func (r *okResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	if r.Background {
		b = append(b, `,"background":true`...)
	}
	return append(b, '}')
}

// appendPoints appends [{"x","y","id"},...]; nil and empty are both [].
func appendPoints(b []byte, pts []pathcache.Point) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = strconv.AppendInt(b, p.X, 10)
		b = append(b, `,"y":`...)
		b = strconv.AppendInt(b, p.Y, 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, p.ID, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendIntervals appends [{"lo","hi","id"},...]; nil and empty are both [].
func appendIntervals(b []byte, ivs []pathcache.Interval) []byte {
	b = append(b, '[')
	for i, iv := range ivs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lo":`...)
		b = strconv.AppendInt(b, iv.Lo, 10)
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, iv.Hi, 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, iv.ID, 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendFloat formats a finite f as encoding/json does: the shortest
// digits that round-trip, in plain notation except for magnitudes below
// 1e-6 or from 1e21 up, whose exponent loses a leading zero (1e-07 is
// written 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
