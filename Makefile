# Development gate for the geoblock reproduction.
#
#   make check   the tier-1 gate, in order: gofmt → build → vet → geolint
#                → test. The gofmt step (make fmt-check) fails when any
#                tracked .go file — perfbench and the lint testdata
#                included — is not gofmt-clean.
#                geolint (cmd/geolint, built from internal/lint) machine-
#                checks the engine's invariants — determinism (including
#                the cross-package clockflow reachability pass), context
#                flow, outcome handling, codec parity (wirecheck), the
#                metric namespace (telemetrycheck), and shared-snapshot
#                discipline (swapcheck). Any finding fails; a
#                //geolint:allow directive with its reason is the one
#                escape. It runs after vet so type errors surface with
#                the compiler's messages first, and before the test
#                suite so an invariant violation fails in seconds, not
#                after a full chaos run.
#   make lint    gofmt, vet, and the geolint pass.
#   make fmt-check  list tracked .go files that gofmt would change; fail
#                if there are any.
#   make lint-json  the same pass emitting machine-readable JSON to
#                lint.json (the CI artifact).
#   make race    race-detector pass over every package (the chaos and
#                scheduler suites exercise the concurrent scan path),
#                plus an explicit run of the verdict edge's trimmed soak
#                shape — the heaviest reader/swap interleaving the suite
#                has — so it never hides behind test caching, and ten
#                runs of the scan pool's determinism, per-unit
#                allocation and contract (TestEach) tests: the pool's
#                workers share one cursor, and the assembly's free list
#                of sample buffers is reached from several goroutines,
#                a buffer passing from the worker that filled it to
#                whichever one completes next
#   make cover   coverage with ratcheted floors for the scan engine, the
#                fault-injection layer, the telemetry layer, the journal
#                (runstore), the verdict edge, the lint suite, the hop
#                chain (the cdn edge, vnet and the proxy mesh), and the
#                page templates (blockpage)
#   make fuzz    short-budget fuzz pass over the hostile-input decoders:
#                the journal's record decoder, the fabric's shard-frame
#                decoder and its completion, lease and extend handlers
#                (a refused request is answered 4xx and changes no
#                lease), the blockpage signature
#                matcher, the page formatters (against fmt), the
#                fingerprint classifier (against a strings.Fields
#                oracle), and the verdict snapshot codec
#                (one `go test -fuzz` invocation per target through
#                scripts/fuzz.sh, which fails a target whose exec count
#                stands still; the corpus seeds still run under plain
#                `make check`)
#   make bench   the scan engine benchmarks (collect vs streaming,
#                sharded vs one-worker-per-country, instrumented vs bare)
#                and the page renderers (an origin page, every block
#                page; each page one allocation), BENCHTIME iterations
#                each (default 3x; CI runs 1x so the benchmarks the docs
#                quote cannot break unnoticed)
#   make profile the streaming scan benchmark under the CPU and memory
#                profilers; inspect with `go tool pprof geoblock.test cpu.prof`
#   make fabric-test  the multi-process fabric integration: a `geoscan
#                -study lumscan` coordinator plus three scanworker
#                processes (one chaos-killed mid-shard) must journal,
#                print and count (deterministic metrics) byte-identically
#                to a single-process run of the same scan; then the fabric's wall-clock scaling check (2
#                in-process workers must beat 1, best of 3), which needs
#                the CPUs to itself and so stays out of `go test ./...`
#   make perfbench-test  vet and test the benchmark module (perfbench/,
#                a nested module, so `go test ./...` never compiles it):
#                it imports the scan engine's public seams, and a change
#                to them must not leave the benchmark unbuildable
#   make experiments  rerun the paper-scale reproduction (mktables
#                -scale 1.0, about 25 s and a 1.0 GB peak RSS on 2
#                vCPUs) into a temporary
#                directory and diff it against the committed record in
#                out/, which EXPERIMENTS.md quotes: a change that moves
#                any paper-scale number fails until both are regenerated
#   make soak    the verdict edge's full soak: 32 concurrent clients, a
#                live snapshot swap mid-run, zero dropped or incorrect
#                verdicts, p99 service latency and in-process lookup
#                floors enforced (the same test runs in a trimmed shape
#                under plain `make check`)

GO ?= go

.PHONY: check fmt-check lint lint-json race cover fuzz bench profile fabric-test perfbench-test experiments soak

check: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/geolint ./...
	$(GO) test ./...

fmt-check:
	@out=$$(git ls-files -z '*.go' | xargs -0 -r "$$($(GO) env GOROOT)/bin/gofmt" -l) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt: these files are not gofmt-clean:"; echo "$$out"; exit 1; fi

lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/geolint ./...

lint-json:
	$(GO) run ./cmd/geolint -json ./... > lint.json

race:
	$(GO) test -race ./...
	$(GO) test -race ./cmd/worldd -run TestVerdictSoak -count=1
	$(GO) test -race ./internal/scanner -run 'TestDeterminismAcrossConcurrency|TestUnitAllocs|TestEach' -count=10

# Ratcheted coverage floors: set just below the level each package
# actually achieves, so coverage can only move up. Raise the floor when
# you raise the coverage; never lower it to make a build pass.
cover:
	@set -e; \
	check() { \
	  pct=$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
	  echo "$$1: $${pct}% (floor $$2%)"; \
	  awk -v p="$$pct" -v m="$$2" 'BEGIN { exit (p+0 >= m+0) ? 0 : 1 }' \
	    || { echo "FAIL: coverage for $$1 fell below the ratcheted floor of $$2%"; exit 1; }; \
	}; \
	check ./internal/scanner 94; \
	check ./internal/faults 94; \
	check ./internal/lint 92; \
	check ./internal/telemetry 95; \
	check ./internal/trace 90; \
	check ./internal/runstore 91; \
	check ./internal/fabric 80; \
	check ./internal/verdict 85; \
	check ./internal/cdn 88; \
	check ./internal/vnet 83; \
	check ./internal/proxy 89; \
	check ./internal/blockpage 95

# `go test -fuzz` takes exactly one fuzz target per invocation, so each
# decoder gets its own line. The budget is deliberately small: this is a
# smoke pass to catch freshly broken invariants, not a campaign. Each
# new input's minimization is bounded to 1 s: unbounded, it may run for
# 60 s, and while every worker minimizes the target fuzzes nothing,
# which scripts/fuzz.sh fails. A crasher is still saved to testdata/fuzz.
FUZZTIME ?= 10s
FUZZ = GO=$(GO) sh scripts/fuzz.sh
FUZZFLAGS = -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

fuzz:
	$(FUZZ) ./internal/runstore FuzzDecodeRecord $(FUZZFLAGS)
	$(FUZZ) ./internal/runstore FuzzDecodeShardFrames $(FUZZFLAGS)
	$(FUZZ) ./internal/fabric FuzzCompleteHandler $(FUZZFLAGS)
	$(FUZZ) ./internal/fabric FuzzLeaseHandler $(FUZZFLAGS)
	$(FUZZ) ./internal/fabric FuzzExtendHandler $(FUZZFLAGS)
	$(FUZZ) ./internal/blockpage FuzzMatchSignature $(FUZZFLAGS)
	$(FUZZ) ./internal/blockpage FuzzFormatters $(FUZZFLAGS)
	$(FUZZ) ./internal/fingerprint FuzzClassify $(FUZZFLAGS)
	$(FUZZ) ./internal/verdict FuzzDecodeSnapshot $(FUZZFLAGS)

BENCHTIME ?= 3x

bench:
	$(GO) test . -run xxx -bench 'BenchmarkScan(Collect|Streaming|SkewedSharded|Instrumented|ColdVsResume)|Benchmark(OriginRender|BlockPages)' -benchtime $(BENCHTIME)

profile:
	$(GO) test . -run xxx -bench 'BenchmarkScanStreaming' -benchtime 10x \
		-cpuprofile cpu.prof -memprofile mem.prof -o geoblock.test
	@echo "inspect with: $(GO) tool pprof geoblock.test cpu.prof"

fabric-test:
	sh scripts/fabric_integration.sh
	GEOBLOCK_FABRIC_SCALING=full $(GO) test . -run TestFabricScalesWithWorkers -v -count=1

perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

experiments:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/mktables -scale 1.0 -out "$$tmp" > /dev/null && \
	diff -r out "$$tmp" && echo "experiments: out/ reproduces at paper scale"

soak:
	GEOBLOCK_SOAK=full $(GO) test ./cmd/worldd -run TestVerdictSoak -v -count=1
