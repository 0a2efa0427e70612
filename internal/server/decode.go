package server

// Fast request decoding. The hot endpoints take flat bodies — one JSON
// object of integer fields, like {"a":180,"b":185} — and running those
// through encoding/json's reflection was about 9% of pcserve's CPU on the
// served benchmark. decodeFlat parses exactly that shape by hand and
// declines everything else, so every declined body still goes through
// decodeStrict: accepted values and every error body stay byte-identical
// to encoding/json's. FuzzRequestDecodeFast holds the two paths to that.

// decodeFlat decodes body as one flat JSON object when the result is
// certain to equal encoding/json's: every key spelled exactly as one of
// keys (no escapes; encoding/json would also match other cases), every
// value a plain integer (optional minus, no leading zeros, no fraction or
// exponent) that fits its field, JSON whitespace only around the tokens,
// and nothing after the object. A repeated key keeps its last value, as
// encoding/json does. Field i's value goes to vals[i] (a uint64 field,
// marked by bit i of unsigned, as its bits), and bit i of set reports that
// it was present. On any other input decodeFlat returns ok=false and
// leaves vals untouched.
func decodeFlat(body []byte, keys []string, vals []int64, unsigned uint8) (set uint8, ok bool) {
	var got [4]int64
	p := skipSpace(body, 0)
	if p == len(body) || body[p] != '{' {
		return 0, false
	}
	p = skipSpace(body, p+1)
	if p < len(body) && body[p] == '}' {
		return 0, skipSpace(body, p+1) == len(body)
	}
	for {
		// Key: a quoted run of bytes naming a field exactly.
		if p == len(body) || body[p] != '"' {
			return 0, false
		}
		end := p + 1
		for end < len(body) && body[end] != '"' && body[end] != '\\' {
			end++
		}
		if end == len(body) || body[end] != '"' {
			return 0, false
		}
		field := fieldIndex(keys, body[p+1:end])
		if field < 0 {
			return 0, false
		}
		p = skipSpace(body, end+1)
		if p == len(body) || body[p] != ':' {
			return 0, false
		}
		p = skipSpace(body, p+1)

		// Value: -?(0|[1-9][0-9]*), in range for the field.
		neg := p < len(body) && body[p] == '-'
		if neg {
			p++
		}
		start := p
		var mag uint64
		for p < len(body) && body[p] >= '0' && body[p] <= '9' {
			d := uint64(body[p] - '0')
			if mag > (1<<64-1-d)/10 {
				return 0, false
			}
			mag = mag*10 + d
			p++
		}
		if p == start || (body[start] == '0' && p-start > 1) {
			return 0, false
		}
		v, fits := fitInt(neg, mag, unsigned&(1<<field) != 0)
		if !fits {
			return 0, false
		}
		got[field] = v
		set |= 1 << field

		p = skipSpace(body, p)
		if p == len(body) {
			return 0, false
		}
		switch body[p] {
		case ',':
			p = skipSpace(body, p+1)
		case '}':
			if skipSpace(body, p+1) != len(body) {
				return 0, false
			}
			copy(vals, got[:len(keys)])
			return set, true
		default:
			return 0, false
		}
	}
}

// fitInt converts a parsed integer to its field's type, reporting false
// where encoding/json would refuse it: a negative or oversized uint64, an
// int64 outside its range.
func fitInt(neg bool, mag uint64, unsigned bool) (int64, bool) {
	switch {
	case unsigned:
		// encoding/json refuses any minus sign here, -0 included.
		return int64(mag), !neg
	case neg:
		return -int64(mag), mag <= 1<<63
	default:
		return int64(mag), mag <= 1<<63-1
	}
}

func fieldIndex(keys []string, key []byte) int {
	for i, k := range keys {
		if k == string(key) {
			return i
		}
	}
	return -1
}

// skipSpace returns the first index at or after p that is not JSON
// whitespace.
func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\t' || b[p] == '\n' || b[p] == '\r') {
		p++
	}
	return p
}

// flatPtr points a present field at its decoded value, and leaves an absent
// one nil.
func flatPtr(vals []int64, set uint8, i int) *int64 {
	if set&(1<<i) == 0 {
		return nil
	}
	return &vals[i]
}

// fastReq is a request type with a hand-written decoder for its flat
// bodies. decodeFast reports false, having written nothing, on any body it
// does not decode exactly as encoding/json would.
type fastReq interface {
	decodeFast(body []byte) bool
}

// decodeReq decodes a flat request body: the fast path when it accepts the
// body, decodeStrict otherwise.
func decodeReq(body []byte, req fastReq) *apiError {
	if req.decodeFast(body) {
		return nil
	}
	return decodeStrict(body, req)
}

var queryKeys = []string{"a", "b", "a1", "a2"}

func (q *queryReq) decodeFast(body []byte) bool {
	set, ok := decodeFlat(body, queryKeys, q.flat[:], 0)
	if ok {
		q.A, q.B = flatPtr(q.flat[:], set, 0), flatPtr(q.flat[:], set, 1)
		q.A1, q.A2 = flatPtr(q.flat[:], set, 2), flatPtr(q.flat[:], set, 3)
	}
	return ok
}

var windowKeys = []string{"x1", "x2", "y1", "y2"}

func (q *windowReq) decodeFast(body []byte) bool {
	set, ok := decodeFlat(body, windowKeys, q.flat[:], 0)
	if ok {
		q.X1, q.X2 = flatPtr(q.flat[:], set, 0), flatPtr(q.flat[:], set, 1)
		q.Y1, q.Y2 = flatPtr(q.flat[:], set, 2), flatPtr(q.flat[:], set, 3)
	}
	return ok
}

var stabKeys = []string{"q"}

func (q *stabReq) decodeFast(body []byte) bool {
	set, ok := decodeFlat(body, stabKeys, q.flat[:], 0)
	if ok {
		q.Q = flatPtr(q.flat[:], set, 0)
	}
	return ok
}

var recordKeys = []string{"x", "y", "id"}

func (q *recordReq) decodeFast(body []byte) bool {
	set, ok := decodeFlat(body, recordKeys, q.flat[:], 1<<2)
	if ok {
		q.X, q.Y = flatPtr(q.flat[:], set, 0), flatPtr(q.flat[:], set, 1)
		q.ID = nil
		if set&(1<<2) != 0 {
			q.flatID = uint64(q.flat[2])
			q.ID = &q.flatID
		}
	}
	return ok
}
