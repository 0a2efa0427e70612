package main

import (
	"encoding/json"

	"pathcache"
)

// decodeQuery parses a /v1/query response body into r. With encoding/json
// the client spends 2.2 ms of CPU per report-sharded request against
// 0.35 ms with the fast path, and report-sharded becomes client-bound at
// 40% of the throughput; on search-uniform it costs 41 against 17 µs and
// 36% less throughput (baseline.json, client_paths). The fast path reads
// the shape pcserve writes — objects with keys in any order, integer
// values. Any other shape falls back to encoding/json, so the fast path
// never decides what a valid body means.
func decodeQuery(body []byte, r *queryResp) error {
	if parseQuery(body, r) {
		return nil
	}
	*r = queryResp{Points: r.Points[:0]}
	return json.Unmarshal(body, r)
}

// scanner reads the JSON subset parseQuery accepts.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c (after whitespace) if it is next.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key reads `"name":`; names with escapes are left to encoding/json.
func (s *scanner) key() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if s.b[s.i] == '\\' {
			return nil, false
		}
		s.i++
	}
	if s.i == len(s.b) {
		return nil, false
	}
	k := s.b[start:s.i]
	s.i++
	return k, s.lit(':')
}

// int reads a JSON integer that fits in an int64.
func (s *scanner) int() (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		if s.i-start == 18 {
			return 0, false // 19+ digits may overflow
		}
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start || (s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E')) {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// number skips any JSON number (the io block's float fields).
func (s *scanner) number() bool {
	s.ws()
	start := s.i
	for s.i < len(s.b) && isNumberByte(s.b[s.i]) {
		s.i++
	}
	return s.i > start
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// parseQuery is decodeQuery's fast path; false means "not the expected
// shape", with r in an unspecified state.
func parseQuery(body []byte, r *queryResp) bool {
	s := &scanner{b: body}
	r.Count, r.Points, r.IO = 0, r.Points[:0], ioBlock{}
	if !s.lit('{') {
		return false
	}
	for first := true; !s.lit('}'); first = false {
		if !first && !s.lit(',') {
			return false
		}
		k, ok := s.key()
		if !ok {
			return false
		}
		switch string(k) {
		case "count":
			v, ok := s.int()
			if !ok {
				return false
			}
			r.Count = int(v)
		case "points":
			if !parsePoints(s, r) {
				return false
			}
		case "io":
			if !parseIO(s, &r.IO) {
				return false
			}
		default:
			return false
		}
	}
	s.ws()
	return s.i == len(s.b)
}

func parsePoints(s *scanner, r *queryResp) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !s.lit('{') {
			return false
		}
		var x, y, id int64
		for n := 0; n < 3; n++ {
			if n > 0 && !s.lit(',') {
				return false
			}
			k, ok := s.key()
			if !ok {
				return false
			}
			v, ok := s.int()
			if !ok {
				return false
			}
			switch string(k) {
			case "x":
				x = v
			case "y":
				y = v
			case "id":
				if v < 0 {
					return false
				}
				id = v
			default:
				return false
			}
		}
		if !s.lit('}') {
			return false
		}
		r.Points = append(r.Points, pathcache.Point{X: x, Y: y, ID: uint64(id)})
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

func parseIO(s *scanner, io *ioBlock) bool {
	if !s.lit('{') {
		return false
	}
	for first := true; !s.lit('}'); first = false {
		if !first && !s.lit(',') {
			return false
		}
		k, ok := s.key()
		if !ok {
			return false
		}
		var dst *int64
		switch string(k) {
		case "reads":
			dst = &io.Reads
		case "writes":
			dst = &io.Writes
		case "cache_hits":
			dst = &io.CacheHits
		case "bound", "ratio":
			if !s.number() {
				return false
			}
			continue
		default:
			return false
		}
		v, ok := s.int()
		if !ok {
			return false
		}
		*dst = v
	}
	return true
}
