package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRequestDecodeFast holds the hand-written flat decoder to
// encoding/json: for every request type with a fast path, on any body the
// fast path either declines, writing nothing, or yields exactly the
// request decodeStrict (encoding/json with DisallowUnknownFields) yields —
// which must then accept the body too.
func FuzzRequestDecodeFast(f *testing.F) {
	for _, body := range []string{
		`{"a":1,"b":2}`, `{"a1": 1, "a2": 2, "b": 3}`, `{}`, ` {"q":7} `,
		"\t{\"x\":1,\r\n\"y\":2,\"id\":3}\n",
		`{"x1":-4,"x2":5,"y1":-9223372036854775808,"y2":9223372036854775807}`,
		// Keys encoding/json matches case-insensitively or through escapes.
		`{"A":1,"b":2}`, `{"Id":3,"x":1,"y":2}`, `{"\u0061":1,"b":2}`, `{"a\u0031":1}`,
		// Values the fast path must leave to encoding/json.
		`{"a":null,"b":2}`, `{"a":1.0,"b":2}`, `{"a":-0,"b":0}`, `{"a":01,"b":2}`,
		`{"a":1e3,"b":2}`, `{"a":"1","b":2}`, `{"a":true}`, `{"a":-,"b":1}`,
		// 19- and 20-digit integers, around both limits.
		`{"a":9223372036854775807,"b":-9223372036854775808}`,
		`{"a":9223372036854775808,"b":1}`, `{"a":-9223372036854775809,"b":1}`,
		`{"x":1,"y":2,"id":18446744073709551615}`, `{"x":1,"y":2,"id":18446744073709551616}`,
		`{"x":1,"y":2,"id":-0}`, `{"x":1,"y":2,"id":-1}`, `{"a":99999999999999999999,"b":1}`,
		// Duplicates, whitespace and trailing data.
		`{"a":1,"a":5,"b":2}`, `{"a":1,"b":2,"a":null}`, " { \"a\" : 1 , \"b\" : 2 } ",
		`{"a":1,"b":2} trailing`, `{"a":1,"b":2}}`, `{"a":1,"b":2}]`, `{"a":1,"b":2}{}`,
		`{"a":1,"b":2,}`, `{"a":1 "b":2}`, `{"a":1,"b":2`, "\v{\"a\":1}", "", "   ",
		`{"a":1,"b":2,"c":3}`, `[1,2]`, `{"q":1}` + strings.Repeat(" ", 64),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkFast(t, body, func() fastReq { return new(queryReq) })
		checkFast(t, body, func() fastReq { return new(windowReq) })
		checkFast(t, body, func() fastReq { return new(stabReq) })
		checkFast(t, body, func() fastReq { return new(recordReq) })
	})
}

// checkFast runs one request type's fast path against decodeStrict.
func checkFast(t *testing.T, body string, fresh func() fastReq) {
	t.Helper()
	fast, slow := fresh(), fresh()
	untouched, _ := json.Marshal(fast)
	if !fast.decodeFast([]byte(body)) {
		if got, _ := json.Marshal(fast); !bytes.Equal(got, untouched) {
			t.Fatalf("%T: declined %q but wrote %s", fast, body, got)
		}
		return
	}
	if aerr := decodeStrict([]byte(body), slow); aerr != nil {
		t.Fatalf("%T: fast path accepted %q, encoding/json refused it: %v", fast, body, aerr)
	}
	// Marshalling compares presence and value of every pointer field and
	// skips the unexported storage behind them.
	got, _ := json.Marshal(fast)
	want, _ := json.Marshal(slow)
	if !bytes.Equal(got, want) {
		t.Fatalf("%T: %q decoded to %s, encoding/json gives %s", fast, body, got, want)
	}
}
