// Command pcserve serves a path-caching index file over HTTP/JSON: point,
// stab and window queries (plus batched variants across the worker pool)
// on any registered kind, the LSM write path (insert/delete/flush/compact)
// on the dynamic kind, and the observability surface (/metrics, /varz,
// /healthz).
//
// Usage:
//
//	pcserve -index file.pc [-addr :8080] [flags]
//
// Every store file is served through a 64-frame buffer pool
// (servePoolPages), so the pages most queries share are read once.
//
// SIGTERM or SIGINT drains gracefully: new requests get 503/draining,
// in-flight requests finish, then the process exits. SIGHUP hot-reloads
// the index file without dropping a single reader (the old snapshot serves
// every request that started on it).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathcache"
	"pathcache/internal/server"
)

// servePoolPages is the buffer pool every served store file opens with: a
// sharded directory gives each shard a pool this size. The pages on the
// search path sit at the top of the structure and are shared by almost
// every query, so a small pool turns them into hits. Measured through the
// served benchmark on a 2-CPU host at 4 KiB pages, medians of alternating
// runs against the unpooled server (10 pairs on the search workloads, 3
// on the others), a 64-frame pool (256 KiB per file) moves
//
//   - search-hot: reads/op 2.115 -> 0.0007, p50 67.5 -> 62.6 us;
//   - search-uniform: reads/op 2.12 -> 0.001, p50 65.9 -> 62.5 us;
//   - report-sharded (64 frames per shard): reads/op 24.4 -> 0, server
//     CPU 317 -> 283 us/op;
//   - lsm-mixed: reads/op 2.64 -> 0.016, p50 88 -> 79 us, server CPU
//     75 -> 64 us/op;
//
// and moves RSS by at most 0.13 MiB. 256 frames cut lsm-mixed's reads
// only to 0.005, were no faster and held about 1 MiB more. There is no
// flag: the pool's evictions (/varz) show when a workload's working set
// outgrows 64 frames, and a size flag waits for that.
const servePoolPages = 64

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pcserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pcserve", flag.ContinueOnError)
	var (
		indexPath   = fs.String("index", "", "index file to serve (required)")
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		quotaRate   = fs.Float64("quota-rate", 0, "per-client tokens/second (0 disables quotas)")
		quotaBurst  = fs.Float64("quota-burst", 0, "per-client token bucket depth")
		maxInflight = fs.Int("max-inflight", 0, "max concurrently executing requests (0 = unlimited)")
		deadline    = fs.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline = fs.Duration("max-deadline", 60*time.Second, "hard cap on client-requested deadlines")
		workers     = fs.Int("batch-workers", 0, "batch worker pool width (0 = GOMAXPROCS)")
		maxBatch    = fs.Int("max-batch", 0, "max queries per batch request (0 = 8192)")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("-index is required")
	}

	handle, err := pathcache.OpenHandle(*indexPath, &pathcache.Options{BufferPoolPages: servePoolPages})
	if err != nil {
		return err
	}
	defer handle.Close()

	srv := server.New(handle, server.Config{
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		MaxInflight:     *maxInflight,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		BatchWorkers:    *workers,
		MaxBatch:        *maxBatch,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The test harness (and init systems) parse this line to learn the
	// bound port when -addr ends in :0.
	fmt.Fprintf(stdout, "pcserve: serving %s on http://%s\n", *indexPath, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	defer signal.Stop(sigc)

	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if err := handle.Reload(); err != nil {
					log.Printf("pcserve: reload: %v", err)
				} else {
					log.Printf("pcserve: reloaded %s (generation %d)", *indexPath, handle.Generation())
				}
				continue
			}
			fmt.Fprintf(stdout, "pcserve: %v received, draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
			err := srv.Drain(ctx)
			cancel()
			if err != nil {
				return err
			}
			<-errc
			fmt.Fprintln(stdout, "pcserve: drained")
			return nil
		}
	}
}
