// Package allowlist_bare is an allowlist-subcommand fixture: its one
// lockheldio directive does not name the lock set it excuses, which must
// fail the report.
package allowlist_bare

import "sync"

type guarded struct {
	mu sync.RWMutex
	n  int
}

func (g *guarded) bump() {
	g.mu.Lock()
	//pcvet:allow lockheldio -- excuses whatever lock this line takes
	g.n++
	g.mu.Unlock()
}
