package analysis

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestParseDirective pins the directive grammar: a qualified analyzer must
// name its qualifier, an unqualified one must not, and a qualifier is
// compared in canonical (sorted, trimmed) form.
func TestParseDirective(t *testing.T) {
	known := []*Analyzer{{Name: "lockheldio", Qualifier: "lock set"}, {Name: "commitprotocol"}}
	ok := []struct {
		text string
		want []Allow
	}{
		{"//pcvet:allow lockheldio(t.mu.RLock) -- reason", []Allow{{"lockheldio", "t.mu.RLock"}}},
		{"//pcvet:allow lockheldio( t.mu.RLock , t.wmu.Lock ) -- reason", []Allow{{"lockheldio", "t.mu.RLock,t.wmu.Lock"}}},
		{"//pcvet:allow lockheldio(t.wmu.Lock,t.mu.RLock) -- reason", []Allow{{"lockheldio", "t.mu.RLock,t.wmu.Lock"}}},
		{"//pcvet:allow commitprotocol,lockheldio(t.wmu.Lock) -- reason", []Allow{{"commitprotocol", ""}, {"lockheldio", "t.wmu.Lock"}}},
		{"//pcvet:allow otherchecker -- reason", []Allow{{"otherchecker", ""}}},
	}
	for _, c := range ok {
		got, reason, err := ParseDirective(c.text, known)
		if err != nil || reason != "reason" || !slices.Equal(got, c.want) {
			t.Errorf("ParseDirective(%q) = %v, %q, %v; want %v", c.text, got, reason, err, c.want)
		}
	}
	bad := []struct{ text, msg string }{
		{"//pcvet:allow lockheldio -- reason", "must name the lock set"},
		{"//pcvet:allow commitprotocol,lockheldio -- reason", "must name the lock set"},
		{"//pcvet:allow commitprotocol(x) -- reason", "takes no argument"},
		{"//pcvet:allow lockheldio() -- reason", "names nothing"},
		{"//pcvet:allow lockheldio(t.mu.Lock -- reason", "not one parenthesized list"},
		{"//pcvet:allow lockheldio(t.mu.Lock)", "needs a justification"},
	}
	for _, c := range bad {
		if _, _, err := ParseDirective(c.text, known); err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("ParseDirective(%q) err = %v, want one containing %q", c.text, err, c.msg)
		}
	}
	if _, _, err := ParseDirective("//pcvet:allow lockheldio(a.Lock)", known); !errors.Is(err, ErrNoReason) {
		t.Errorf("missing reason: err = %v, want ErrNoReason", err)
	}
}
