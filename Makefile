# Tier-1 verification: formatting, vet, build, tests. CI and the README
# both point here; `make check` must pass before merging, and `make ci`
# mirrors .github/workflows/ci.yml step for step.

GO ?= go

.PHONY: check ci fmt vet build test test-bench-harness race verify fuzz smoke-experiments smoke-server smoke-store smoke-cluster smoke-jobs smoke-strategies smoke-corpus bench loc

check: fmt vet build test test-bench-harness race verify fuzz smoke-strategies smoke-experiments smoke-server smoke-store smoke-cluster smoke-jobs smoke-corpus

# ci runs exactly what .github/workflows/ci.yml runs, in the same
# order: the gates, the fuzz smoke, the strategy-matrix smoke, the
# experiments smoke, the serving smoke, the persistent-cache smoke, the
# cluster chaos smoke, the async-job/audit smoke, the corpus smoke, then
# the bench harness smoke. Performance is gated by the bounds in BENCHMARK.json, not here.
ci: fmt vet build test test-bench-harness race fuzz smoke-strategies smoke-experiments smoke-server smoke-store smoke-cluster smoke-jobs smoke-corpus bench

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-bench-harness vets and unit-tests the benchmark harness. bench/
# is a module of its own, so the ./... patterns above never reach it;
# -short skips its timed smoke runs.
test-bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The batch driver allocates routines concurrently; the race detector
# guards the no-shared-mutable-state contract of core.Allocate (and,
# since the telemetry subsystem, the concurrent metrics registry and
# trace recorder).
race:
	$(GO) test -race ./...

# verify runs the independent post-allocation checker over the whole
# benchmark suite: every kernel and callee, the chaitin and remat
# strategies, at standard and starved register counts, asserting zero
# degradations.
verify:
	$(GO) test -run 'TestKernelsVerify' ./internal/suite

# fuzz gives each native fuzz target a short smoke run; longer runs are
# the same commands with a bigger -fuzztime. FuzzDecodeEntry's seeds are
# whole store entries, which the default 60 s minimizer would spend the
# run shrinking, so its minimizer gets 1 s per new input; FuzzImportBundle's
# are whole bundles, each new one found several times a second, so its
# minimizer gets one attempt.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/iloc
	$(GO) test -run '^$$' -fuzz '^FuzzParseProgram$$' -fuzztime 5s ./internal/iloc
	$(GO) test -run '^$$' -fuzz FuzzAllocate -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLookupStrategy -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzGraph -fuzztime 5s ./internal/ig
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 5s ./internal/corpus
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime 5s -fuzzminimizetime 1s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzImportBundle -fuzztime 5s -fuzzminimizetime 1x ./internal/store

# smoke-strategies runs one small kernel through every registered
# allocation strategy with the verifier on and degradation disabled:
# each strategy must produce independently verified code.
smoke-strategies:
	@for s in $$($(GO) run ./cmd/ralloc -list-strategies | awk '{print $$1}'); do \
		echo "smoke-strategies: $$s"; \
		$(GO) run ./cmd/ralloc -strategy "$$s" -strict testdata/fig1.iloc >/dev/null || exit 1; \
	done

# smoke-experiments regenerates every table, figure and study once,
# the register sweep and its shared result cache included, and fails on
# any error (a kernel that fails to allocate or computes a wrong
# answer). One Table 2 run keeps it to about a second.
smoke-experiments:
	$(GO) run ./cmd/experiments -all -runs 1 >/dev/null

# smoke-server boots rallocd on an ephemeral port, pushes one verified
# allocation through it with rallocload, and asserts a clean SIGTERM
# drain.
smoke-server:
	sh scripts/server_smoke.sh

# smoke-store proves the persistent cache tier end to end: a daemon
# restart serves byte-identical disk-tier hits; a bundle exported over
# GET /v1/cache/bundle warms a fresh daemon before its first request;
# a deliberately corrupted entry is quarantined and never served.
smoke-store:
	sh scripts/store_smoke.sh

# smoke-cluster is the chaos gate: three rallocd backends behind
# rallocproxy, content-keyed routing proven by warm cache hits through
# the proxy, then the backend owning the workload is SIGKILLed
# mid-load. Zero contract violations allowed (only 200/429, every 200
# verified), the breaker must open and recover when the backend
# restarts, and the whole cluster must drain cleanly.
smoke-cluster:
	sh scripts/cluster_smoke.sh

# smoke-corpus proves the corpus engine and machine zoo end to end: a
# small spec generated twice byte-identically, hash-verified by
# inspect, then replayed through a live rallocd on two zoo machines
# with every request a verified 200; an unknown -machine must fail
# fast naming the registered ones.
smoke-corpus:
	sh scripts/corpus_smoke.sh

# smoke-jobs proves the async job API byte-identical to the sync path
# through the routing proxy — submit POST /v1/jobs, poll, stream NDJSON
# results, compare code bytes against a sync run — and requires the
# cluster-wide audit stream (GET /v1/audit?flush=1) lossless: verdicts
# logged, zero drops, everything flushed, job-attributed records on
# disk after the drain.
smoke-jobs:
	sh scripts/jobs_smoke.sh

# bench runs every go-test benchmark of every package once, so no
# package microbenchmark can rot unnoticed, then the bench/ harness
# smoke: every BENCHMARK.json workload, untraced and traced, failing on
# any wrong allocation. The measured benchmark is `bash bench/run.sh`.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	cd bench && $(GO) test -run TestBenchSmoke ./...

# loc prints the line count of the non-test Go sources outside bench/,
# the size figure a change reports before and after. It skips
# .bench_build/, where a harness build leaves the toolchain's temporary
# Go files. It gates nothing and is not part of check or ci.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' ! -path './.bench_build/*' | xargs cat | wc -l
