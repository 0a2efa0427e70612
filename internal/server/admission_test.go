package server

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// TestQuotaTableBounded rotates 100,000 distinct client keys through one
// quota table, with a hot client and returning clients mixed in. The table
// must stay bounded, and every allow/deny decision and Retry-After must
// match a table that never drops a bucket.
func TestQuotaTableBounded(t *testing.T) {
	const rate, burst = 10, 2
	q := newQuotaTable(rate, burst)
	ref := newQuotaTable(rate, burst)
	ref.sweepAt = math.MaxInt // the reference keeps every bucket

	now := time.Unix(1_700_000_000, 0)
	largest := 0
	take := func(client string) {
		ok, retry := q.take(client, now)
		wantOK, wantRetry := ref.take(client, now)
		if ok != wantOK || retry != wantRetry {
			t.Fatalf("client %s at %v: got (%v, %d), want (%v, %d)", client, now, ok, retry, wantOK, wantRetry)
		}
		largest = max(largest, len(q.buckets))
	}
	for i := 0; i < 100_000; i++ {
		now = now.Add(time.Millisecond)
		take("c-" + strconv.Itoa(i))
		if i%10 == 0 {
			take("hot") // denied often: 100 takes/s against 10 tokens/s
		}
		if i%7 == 0 && i >= 5000 {
			take("c-" + strconv.Itoa(i-5000)) // a client back after its bucket refilled
		}
	}
	if len(ref.buckets) < 100_000 {
		t.Fatalf("reference table holds %d buckets; the test did not rotate keys", len(ref.buckets))
	}
	// A bucket refills within burst/rate = 0.2 s, about 250 takes here, so
	// twice the sweep floor bounds the table.
	if largest > 2*minSweep {
		t.Fatalf("quota table grew to %d buckets, want <= %d", largest, 2*minSweep)
	}
}
