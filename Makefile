# Development targets. `make check` is the tier-1 gate; `make ci` is what a
# CI job should run (check + race + fuzz-short + benchmark smoke).

GO ?= go

.PHONY: all build check vet fmt test loc race fuzz-short cover bench bench-check bench-quick serve-smoke recover-smoke build-large-smoke ci

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l lists unformatted files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test: build
	$(GO) test ./...

check: vet fmt test

# Non-test Go lines per package of this module and bench/, in two groups:
# production-linked packages (what `go list -deps` reaches from cmd/...,
# examples/... and the bench module) and test-support packages (reachable
# only from tests, such as graph/graphtest and wal/faultfs). Each group
# ends with its total and the share under internal/.
LOC_FILES = {{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}
loc:
	@{ { $(GO) list -deps ./cmd/... ./examples/... && $(GO) list -C bench -deps ./...; } | sed 's/^/P /' && \
	  { $(GO) list -f '$(LOC_FILES)' ./... && $(GO) list -C bench -f '$(LOC_FILES)' ./...; } | sed 's/^/F /'; } | \
	awk '$$1 == "P" { prod[$$2] = 1; next } \
	  { n = 0; for (i = 3; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } lines[$$2] = n; pkg[++k] = $$2 } \
	  END { for (g = 1; g <= 2; g++) { \
	    print (g == 1 ? "production-linked" : "test-support") " packages (non-test Go lines):"; tot = 0; in_ = 0; \
	    for (j = 1; j <= k; j++) { p = pkg[j]; if ((p in prod) != (g == 1)) continue; \
	      printf "  %6d  %s\n", lines[p], p; tot += lines[p]; if (p ~ /\/internal\//) in_ += lines[p] } \
	    printf "  %6d  total (%d under internal/)\n", tot, in_ } }'

# Race-detector pass over the packages that exercise concurrency
# (parallel stretch verification, the searchers every layer borrows from
# internal/graph's pool, parallel experiment reps), the grid-cell-parallel
# CSR builder in internal/ubg that every engine boots through, the dynamic
# engine, the serving layer — whose stress tests run ≥8 concurrent readers
# against a live mutator and slam Close into live Mutate/Route traffic —
# and the WAL + replication layer, whose stream subscribers race the log
# writer. internal/labels rides along because its differential harness churns a
# live dynamic engine while querying the oracle the same way concurrent
# service readers do. internal/analyze is here for its parallel edge scans
# and the differential impact fuzz. The second line re-runs the
# mutate-while-route and mutate-while-analyze stress tests with
# GOMAXPROCS=4, so the snapshot swap, the striped route cache and the one
# searcher pool — shared by readers, /analyze scans and the writer's label
# update — race under real scheduler parallelism even on 1-core CI hosts.
race:
	$(GO) test -race ./internal/graph/ ./internal/ubg/ ./internal/metrics/ ./internal/exp/ ./internal/dynamic/ ./internal/service/ ./internal/analyze/ ./internal/wal/ ./internal/replica/ ./internal/labels/ .
	GOMAXPROCS=4 $(GO) test -race -run '^TestConcurrentMutateWhile(Route|Analyze)$$' ./internal/service/

# Short native-fuzz pass over the untrusted-byte decode surfaces: the WAL
# record/frame/checkpoint decoders (what a follower reads off the wire and
# recovery reads off disk), the netio instance parser (operator files), and
# the daemon's HTTP request surface (mutation validation and every POST
# body / divergence query string a client can send), and the builders'
# covered-edge witness test against its geom.Angle form, both builders on
# degenerate grid points against the phase replay, each other and the
# stretch bound, the listed Luby MIS against its full-graph reference,
# and the spatial grid's adds, removes, moves and bulk builds on
# cell-boundary lattices against a quadratic scan.
# Each target explores for a few seconds on top of the committed seed
# corpora in testdata/fuzz/; go only allows one -fuzz pattern per
# invocation, hence one line per target. New crashers land in the
# package's testdata and fail `go test` until fixed.
FUZZ_TIME ?= 5s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzRecordStream$$' -fuzztime $(FUZZ_TIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZ_TIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime $(FUZZ_TIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZ_TIME) ./internal/netio/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrom$$' -fuzztime $(FUZZ_TIME) ./internal/netio/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateOps$$' -fuzztime $(FUZZ_TIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzHandler$$' -fuzztime $(FUZZ_TIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzCovered$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime $(FUZZ_TIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzLuby$$' -fuzztime $(FUZZ_TIME) ./internal/mis/
	$(GO) test -run '^$$' -fuzz '^FuzzGrid$$' -fuzztime $(FUZZ_TIME) ./internal/geom/

# Coverage over the whole module: the test run prints the per-package
# percentages (the trend worth reading in a CI log), the profile feeds the
# module-wide total and the HTML drill-down.
COVER_PROFILE ?= coverage.out
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) -covermode=atomic ./...
	@$(GO) tool cover -func=$(COVER_PROFILE) | tail -1
	@echo "wrote $(COVER_PROFILE); open with: $(GO) tool cover -html=$(COVER_PROFILE)"

# Benchmark smoke: one iteration of each micro-benchmark with allocation
# accounting, the local tool for reading ns/op and allocs/op (the gated
# work counters are TestWorkBudget's, run by `make test`). BENCH_CPU
# runs every benchmark at 1 and 2 procs — the cores the CI runner and the
# dev sandbox actually have: the -cpu=1 rows guard the sequential hot path,
# the -cpu=2 rows show what a second core buys (BenchmarkServiceRouteParallel
# is the read path's scaling row). A -cpu value above the physical core
# count only measures timesharing overhead.
BENCH_PATTERN = BenchmarkSeqGreedy|BenchmarkStretchVerification|BenchmarkCoreBuild|BenchmarkDistBuild|BenchmarkUBGBuild|BenchmarkChurn|BenchmarkService|BenchmarkRouteUncached|BenchmarkRouteLabel|BenchmarkLabelBuild|BenchmarkAnalyze
BENCH_PKGS = . ./internal/service/
BENCH_CPU ?= 1,2
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=10x -cpu=$(BENCH_CPU) $(BENCH_PKGS)

# The benchmark of record lives in bench/, its own module outside the root
# `go test ./...`, yet it imports internal/* packages: vet it and run its
# short tests from here so a root change that breaks it fails tier-1 CI.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench -short ./...

# One quick end-to-end run of the benchmark of record: it boots daemons
# built from the checkout, drives route load, a churn schedule on a WAL
# with the label oracle maintained per commit, and a kill -9 recovery.
# bench-check runs -short and skips all of that.
bench-quick:
	$(GO) test -C bench -run '^TestQuickEndToEnd$$' -count=1 ./...

# End-to-end smoke of the topology daemon: boot it on SMOKE_ADDR, poll
# /healthz until live, route one packet, check that /stats reports
# 1 <= stretch_estimate <= stretch_bound, and shut it down.
SMOKE_ADDR ?= 127.0.0.1:7079
serve-smoke:
	@set -e; \
	bin=$$(mktemp -t topoctld.XXXXXX); \
	$(GO) build -o $$bin ./cmd/topoctld; \
	log=$$(mktemp -t topoctld-log.XXXXXX); \
	$$bin serve -addr $(SMOKE_ADDR) -n 64 -seed 1 >$$log 2>&1 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null || true; rm -f $$bin $$log" EXIT; \
	ok=0; i=0; while [ $$i -lt 50 ]; do \
		if curl -fsS http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; i=$$((i+1)); \
	done; \
	if [ $$ok -ne 1 ]; then echo "daemon never became healthy:"; cat $$log; exit 1; fi; \
	if ! kill -0 $$pid 2>/dev/null; then \
		echo "daemon we started is dead; a stale listener answered on $(SMOKE_ADDR):"; cat $$log; exit 1; \
	fi; \
	curl -fsS http://$(SMOKE_ADDR)/healthz; \
	curl -fsS -X POST -d '{"scheme":"shortest-path","src":0,"dst":13}' http://$(SMOKE_ADDR)/route; \
	stats=$$(curl -fsS http://$(SMOKE_ADDR)/stats); echo "$$stats"; \
	est=$$(echo "$$stats" | grep -o '"stretch_estimate":[^,}]*' | cut -d: -f2); \
	bound=$$(echo "$$stats" | grep -o '"stretch_bound":[^,}]*' | cut -d: -f2); \
	if ! awk -v e="$$est" -v b="$$bound" 'BEGIN { exit !(e != "" && e + 0 >= 1 && e + 0 <= b + 0) }'; then \
		echo "stretch_estimate $$est outside [1, stretch_bound $$bound]"; exit 1; \
	fi; \
	curl -fsS -X POST -d '{"vertices":[3]}' http://$(SMOKE_ADDR)/analyze/impact >/dev/null; \
	curl -fsS -X POST -d '{"center":0,"hops":2}' http://$(SMOKE_ADDR)/analyze/around >/dev/null; \
	curl -fsS -X POST -d '{"src":0,"dst":13}' http://$(SMOKE_ADDR)/analyze/route; \
	curl -fsS 'http://$(SMOKE_ADDR)/analyze/divergence?sample=64' >/dev/null; \
	echo "serve-smoke OK"

# Crash-recovery smoke of the durable daemon: boot it with a WAL, mutate,
# kill -9 (no shutdown path at all), restart on the same directory, and
# assert the acknowledged epoch survived with the same spanner (edge count
# and weight from /stats) and routes still answer. This is
# the scripted version of the kill-recover loop the replica tests run
# in-process with fault injection.
RECOVER_ADDR ?= 127.0.0.1:7081
recover-smoke:
	@set -e; \
	bin=$$(mktemp -t topoctld.XXXXXX); \
	$(GO) build -o $$bin ./cmd/topoctld; \
	waldir=$$(mktemp -d -t topoctl-wal.XXXXXX); \
	log=$$(mktemp -t topoctld-log.XXXXXX); \
	$$bin serve -addr $(RECOVER_ADDR) -n 64 -seed 1 -wal $$waldir -fsync always >$$log 2>&1 & \
	pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf $$bin $$log $$waldir' EXIT; \
	ok=0; i=0; while [ $$i -lt 50 ]; do \
		if curl -fsS http://$(RECOVER_ADDR)/readyz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; i=$$((i+1)); \
	done; \
	if [ $$ok -ne 1 ]; then echo "daemon never became ready:"; cat $$log; exit 1; fi; \
	ver=$$(curl -fsS -X POST -d '{"ops":[{"op":"move","id":5,"point":[1.0,1.0]},{"op":"leave","id":7}]}' \
		http://$(RECOVER_ADDR)/mutate | grep -o '"version":[0-9]*' | head -1 | cut -d: -f2); \
	if [ -z "$$ver" ]; then echo "mutation did not report a version"; cat $$log; exit 1; fi; \
	topo=$$(curl -fsS http://$(RECOVER_ADDR)/stats | grep -o '"spanner_\(edges\|weight\)":[^,}]*' | sort); \
	if [ $$(echo "$$topo" | wc -l) -ne 2 ]; then echo "/stats lacks spanner_edges or spanner_weight: $$topo"; exit 1; fi; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	$$bin serve -addr $(RECOVER_ADDR) -n 64 -seed 1 -wal $$waldir -fsync always >>$$log 2>&1 & \
	pid=$$!; \
	ok=0; i=0; while [ $$i -lt 50 ]; do \
		if curl -fsS http://$(RECOVER_ADDR)/readyz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; i=$$((i+1)); \
	done; \
	if [ $$ok -ne 1 ]; then echo "daemon never recovered:"; cat $$log; exit 1; fi; \
	stats=$$(curl -fsS http://$(RECOVER_ADDR)/stats); \
	got=$$(echo "$$stats" | grep -o '"version":[0-9]*' | head -1 | cut -d: -f2); \
	if [ "$$got" != "$$ver" ]; then \
		echo "recovered at version $$got, want acknowledged $$ver"; cat $$log; exit 1; \
	fi; \
	gottopo=$$(echo "$$stats" | grep -o '"spanner_\(edges\|weight\)":[^,}]*' | sort); \
	if [ "$$gottopo" != "$$topo" ]; then \
		echo "recovered topology $$gottopo, want pre-crash $$topo"; cat $$log; exit 1; \
	fi; \
	curl -fsS -X POST -d '{"scheme":"shortest-path","src":0,"dst":13}' http://$(RECOVER_ADDR)/route; \
	if ! grep -q "recovered epoch $$ver" $$log; then \
		echo "recovery log line missing:"; cat $$log; exit 1; \
	fi; \
	echo "recover-smoke OK (epoch $$ver and its spanner survived kill -9:" $$topo")"

# Large-build smoke: the million-vertex machinery at a size CI can afford
# (n=131072: parallel frozen-CSR build, dynamic bulk load, SEQ-GREEDY
# spanner, sampled stretch verification) under a hard time budget. The
# test is opt-in via BUILD_LARGE so the tier-1 `go test ./...` run never
# pays for it.
build-large-smoke:
	BUILD_LARGE=1 $(GO) test -run '^TestBuildLargeSmoke$$' -v -timeout 300s .

ci: check race fuzz-short bench bench-check bench-quick serve-smoke recover-smoke build-large-smoke
