GO ?= go

.PHONY: all build test vet race tier1 bench bench-engine bench-compare telemetry-smoke loadtest loadtest-smoke profile clean

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# tier1 is the repository's gate: everything must build and every test
# must pass, plus one engine-round benchmark iteration as a smoke check.
tier1: build vet test bench-engine

bench-engine:
	$(GO) test -bench=EngineRound -benchtime=1x -run '^$$' .

bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# bench-compare records per-protocol node-rounds/s, the Config.Workers
# scaling sweep, the workers×topology grid, the batch-runner amortization
# pair, the dynamic-maintainer pairs, the sharded serving group and the
# telemetry-overhead group into the file named by OUT, e.g.
# `make bench-compare OUT=BENCH_next.json` (set BENCHTIME=3s and COUNT=5
# for stabler numbers).
bench-compare:
	./scripts/bench_compare.sh $(OUT)

# telemetry-smoke boots a real distmatchd (serving + debug listeners),
# drives applies through a shard kill/restart, and asserts /metrics
# parses, /v1/events shows the failover, and pprof serves.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# loadtest boots a real distmatchd and drives it with cmd/loadgen
# (concurrent exactly-once apply clients + matching readers), asserting
# the p99s off the server's own http_request_ns histograms and that the
# post-load /metrics exposition still parses. CI runs the smoke variant.
loadtest:
	./scripts/loadtest.sh full

loadtest-smoke:
	./scripts/loadtest.sh smoke

# profile captures pprof CPU + allocation profiles and a runtime trace of
# a multicore flat-backend run (override PROFILE_ARGS to aim elsewhere);
# inspect with `go tool pprof profiles/cpu.pprof` / `go tool trace
# profiles/run.trace`.
PROFILE_ARGS ?= -algo bipartite -n 4096 -deg 8 -k 3 -workers 0 -repeat 5 -opt=false
profile:
	mkdir -p profiles
	$(GO) run ./cmd/distmatch $(PROFILE_ARGS) \
		-cpuprofile profiles/cpu.pprof \
		-memprofile profiles/mem.pprof \
		-trace profiles/run.trace

clean:
	$(GO) clean ./...
