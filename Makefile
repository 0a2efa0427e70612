# Mirrors .github/workflows/ci.yml: `make lint test benchmark-check
# fuzz-smoke crash serve-smoke` locally is what CI runs remotely, so a
# green local run means a green pipeline.

GO ?= go
BIN := bin
# NAMED runs one named go test step: PKG PATTERN [flags]. It fails when an
# alternative of PATTERN matches no test, where `go test -run` would pass.
NAMED := GO=$(GO) sh scripts/gotest-named.sh
# The write tier's interleaving tests park a writer at a chosen point and
# depend on scheduling, so `make test` and CI rerun them 20 times under
# -race where `go test -race ./...` runs each once.
LSM_INTERLEAVINGS := TestReadersPassParkedFsync|TestQueryDuringFlushBuild|TestWritersWaitOutParkedCompact

.PHONY: all build test benchmark-check lint pcvet allowlist fuzz-smoke crash golden bench-json serve-smoke clean

all: build lint test

build:
	$(GO) build ./...

# The race detector drops sync.Pool items and allocates on its own, so the
# allocation budgets (tests named *Allocs) skip under -race and run again
# without it.
test:
	$(GO) test -race ./...
	$(NAMED) ./... Allocs
	$(NAMED) ./internal/lsm '$(LSM_INTERLEAVINGS)' -race -count=20

# The served benchmark (benchmark/) is a module of its own, so `go test
# ./...` at the root neither builds nor tests it. It uses server.Config,
# Options.WrapPager and disk.WithCounter; this catches a change to those
# that would break it.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# pcvet is the repository's custom multichecker (cmd/pcvet): pager
# discipline, lock-vs-I/O ordering, fixed-width encodings, %w error
# wrapping, and the crash-durability analyzers (durabilityorder,
# commitprotocol, snapshotimmutable) over their CFG/dataflow core.
pcvet:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/pcvet ./cmd/pcvet

# The suppression report: every //pcvet:allow with its justification.
# Fails if any directive lacks one; CI uploads the output as an artifact.
allowlist: pcvet
	$(BIN)/pcvet allowlist ./...

# staticcheck and govulncheck run only when installed so offline checkouts
# still get the gofmt, go vet and pcvet passes; CI always runs them.
lint: pcvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/pcvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

# Short randomized runs of every fuzz target on top of its seed corpus.
fuzz-smoke:
	$(GO) test ./internal/record -run='^$$' -fuzz=FuzzRecordRoundTrip -fuzztime=10s
	$(GO) test ./internal/record -run='^$$' -fuzz=FuzzEncodePointsFlatten -fuzztime=10s
	$(GO) test ./internal/disk -run='^$$' -fuzz=FuzzChainReadWrite -fuzztime=10s
	$(GO) test ./internal/disk -run='^$$' -fuzz=FuzzChainThroughPool -fuzztime=10s
	$(GO) test ./internal/disk -run='^$$' -fuzz=FuzzFileStoreOpen -fuzztime=10s
	$(GO) test ./internal/disk -run='^$$' -fuzz=FuzzMetaCodec -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzServerRequestDecode -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzResponseEncode -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzRequestDecodeFast -fuzztime=10s
	$(GO) test ./internal/btree -run='^$$' -fuzz=FuzzLayoutPageDecode -fuzztime=10s
	$(GO) test ./internal/skeletal -run='^$$' -fuzz=FuzzLayoutPageDecode -fuzztime=10s
	$(GO) test ./internal/skeletal -run='^$$' -fuzz=FuzzMetaReopen -fuzztime=10s

# The crash-consistency matrix: the every-write-point kill sweeps at the
# store level and through every persisted index kind's public build path,
# plus the build golden and differential tests that pin the page-write
# sequence those sweeps kill at.
crash:
	$(NAMED) ./internal/disk 'TestCrashSweepStoreLevel|TestCrashFile|TestFileStore' -v
	$(NAMED) . 'TestCrashSweepIndexes' -v
	$(NAMED) . 'TestBuildGolden' -count=1 -v
	$(NAMED) ./internal/pstcore 'TestBuildMatchesReference' -count=1 -v
	$(NAMED) . 'TestCrashSweepLSM' -v
	$(NAMED) . 'TestCrashSweepShardMap|TestCrashSweepShardStore' -v

# Regenerate cmd/pcindex's golden CLI transcript after an intentional
# output change; review the diff before committing.
golden:
	$(GO) test ./cmd/pcindex -run TestGoldenOutput -update

# Regenerate the committed BENCH_io.json: every experiment table at the
# -small sizes (page 4096, seed 1) beside its environment block. go run
# records the commit only when asked (-buildvcs=true).
# TestBenchIOGolden compares a fresh run against it cell by cell.
bench-json:
	$(GO) run -buildvcs=true ./cmd/pcbench -small -json .

# The serving-layer proof battery over a real listener: boots pcserve's
# smoke test (run() + SIGHUP reload + SIGTERM drain), then drives the
# closed-loop load test (uniform and Zipf mixes from internal/workload),
# which checks that every request succeeds with EXACT per-op I/O summed
# from each response's op-scoped counters. Mirrors the CI serve-smoke job.
# The served performance numbers come from benchmark/ (make
# benchmark-check runs its tests).
serve-smoke:
	$(NAMED) ./cmd/pcserve TestServeSmokeAndSignals -v
	$(NAMED) ./internal/server TestServeLoadBench -v

clean:
	rm -rf $(BIN)
