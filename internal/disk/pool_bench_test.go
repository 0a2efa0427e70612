package disk

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkPoolParallel measures warm-cache read throughput through the
// pool as reader concurrency grows, with the default lock striping and with
// a single shard. One benchmark iteration replays the whole trace,
// partitioned worker w -> accesses w, w+W, .... Compare time/op of shards=1
// against the default at the same worker count: that is the number that
// keeps the striping (DESIGN §6).
func BenchmarkPoolParallel(b *testing.B) {
	const (
		pageSize = 512
		nPages   = 256
		capacity = 128
		length   = 1024
	)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, shards := range []int{defaultShards(capacity), 1} {
			b.Run(fmt.Sprintf("workers=%d/shards=%d", workers, shards), func(b *testing.B) {
				s := MustStore(pageSize)
				buf := make([]byte, pageSize)
				ids := make([]PageID, nPages)
				for i := range ids {
					id, err := s.Alloc()
					if err != nil {
						b.Fatal(err)
					}
					ids[i] = id
				}
				p, err := NewBufferPoolShards(s, capacity, shards)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(17))
				trace := make([]PageID, length)
				for i := range trace {
					trace[i] = ids[rng.Intn(nPages)]
				}
				// Warm pass so every measured pass sees the steady state.
				for _, id := range trace {
					if err := p.Read(id, buf); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for g := 0; g < workers; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							buf := make([]byte, pageSize)
							for j := g; j < len(trace); j += workers {
								if err := p.Read(trace[j], buf); err != nil {
									b.Error(err)
									return
								}
							}
						}(g)
					}
					wg.Wait()
				}
				st := p.Stats()
				total := st.Hits + st.Misses
				if total > 0 {
					b.ReportMetric(float64(st.Hits)/float64(total)*100, "hit%")
				}
			})
		}
	}
}
