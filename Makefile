# sconrep build/test/bench targets.

GO ?= go

.PHONY: all build test race vet lint ci flake-guard chaos recovery bench bench-hotpath bench-e2e-smoke fuzz-smoke sweep examples clean

# Pinned external linter versions (CI installs these; locally they run
# only when already on PATH — the build never downloads tools).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... .

vet:
	$(GO) vet ./...
	gofmt -l .

# Project-specific static analysis (sconrep-vet: FSC table-sets, lock
# discipline, chaos determinism, lock-order deadlock analysis) plus
# staticcheck/govulncheck when installed. sconrep-vet must run from the
# module root: its loader resolves module-local imports through the
# source importer. -strict promotes warnings to failures, keeping the
# committed tree clean of both. Binary layouts are not linted: the wire
# frames, WAL records and checkpoint image are pinned by golden-bytes
# tests, so layout drift fails `make test`.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sconrep-vet -strict ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI pins $(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# The same gate CI runs (.github/workflows/ci.yml): the end-to-end
# benchmark smoke, then build, vet, sconrep-vet, formatting (fails on
# any unformatted file), tests, the flake guard, race tests (the root
# package too: Bootstrap's other replicas are built at once, sharing
# the first one's rows).
# benchmark/ is a frozen nested module ./... does not reach;
# bench-e2e-smoke starts by vetting it, so an API break it would not
# survive (a changed Begin or Dispatch signature) is the first thing
# this target reports.
ci: bench-e2e-smoke
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) run ./cmd/sconrep-vet -strict ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) test ./...
	$(MAKE) flake-guard
	$(GO) test -race ./internal/... .

# Flake guard: one run of the suite cannot see a flake that fails one
# run in four, so these tests run 25 times — the ones that ride a
# restart, a crashed replica, a lease, the probe period (the gateway's,
# or a client's idle timer), a restarted gateway's first probe against a
# delayed certifier link, the replicas built from replica 0's load and
# then fed refreshes, or a
# local commit's turn in the apply window between refreshes, a
# reconnect backoff, a bounded start wait, the read path's
# allocation ceilings, which a stray collection or timer could tip, and
# the wall-clock cost of the latency model's one-way charge, which a
# busy host stretches.
# CI's flake-guard step runs this target: this is the one list.
FLAKE_TESTS = TestDeploymentSmoke|TestShardedDeploymentLearnsRouting|TestGatewayLearnsShardRouting|TestClusterCrashFailover|TestCrashRecoverThroughFacade|TestLeaseRule|TestRestartKeepsOneStore|TestCrashedBatchAckKeepsEagerWait|TestRecoveryHistogramFollowsRestart|TestHeldEndIdleBound|TestClientHeldEndIdleBound|TestStaleTxnIDAfterRestartEndsNothing|TestLoadDataLoadsReplicasConcurrently|TestLoadDataNamesFailingReplica|TestLoadDataReplicasAreIdentical|TestLocalCommitLogsBeforeLaterRefresh|TestCommitAdoptsOwnBackfilledRefresh|TestBatchStopsAtLocalCommitVersion|TestReadPathAllocs|TestExecPreparedAllocs|TestTPCWStatementAllocs|TestClientLogsShardRefusalOnce|TestUnreachableFloorIsRefused|TestRestartedGatewayKeepsStrongReads|TestRecoverFetchesMissedSuffixOnce|TestReconnectBelowTrimFloorIsRefused|TestLinkChargesOneWay
FLAKE_PKGS = ./cmd/sconrepd ./internal/cluster ./internal/replica ./internal/sql ./internal/workload/tpcw ./internal/wire .
flake-guard:
	$(GO) test -count=25 -run '$(FLAKE_TESTS)' $(FLAKE_PKGS)

# Seeded chaos harness: fault-injected TPC-W over the networked
# cluster, oracle-checked in all four modes, under the race detector.
# -run TestChaos matches the single-sequencer runs, TestChaosSharded
# (4-shard certifier, version-order oracle) and TestChaosBacklog
# (replicas held 80–200 versions down, then recovered into live faulted
# traffic; slot sums checked at every version on every replica).
# Replay one failing seed with:
#   SCONREP_CHAOS_SEED=<s> $(GO) test -race -run 'TestChaos/<mode>' ./internal/cluster/
chaos:
	SCONREP_CHAOS_SEEDS=8 $(GO) test -race -run TestChaos -count=1 -timeout 20m ./internal/cluster/

# Crash-recovery chaos: durable replicas kill -9'd mid-apply, mid-
# checkpoint, and with a torn WAL tail, restarted from disk under
# fault-injected TPC-W, oracle-checked and byte-compared against a
# never-crashed peer in all four modes. Replay a failing seed with:
#   SCONREP_CHAOS_SEED=<s> $(GO) test -race -run TestCrashRecoveryChaos ./internal/cluster/
recovery:
	SCONREP_CHAOS_SEEDS=8 $(GO) test -race -run TestCrashRecovery -count=1 -timeout 20m ./internal/cluster/

# Smoke-sized benchmarks: one per paper table/figure, plus module
# micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmarks: the refresh-apply route on two inputs (a
# 64-refresh backlog over ten keys, an 8192-deep backlog), sharded
# certification throughput (1 vs 4 sequencers over disjoint /
# cross-shard / single-hot-table workloads), the 100k-entry History
# lookup, refresh streaming
# over a real TCP link, per-replica refresh bytes under partial shard
# subscriptions, a transaction's links over loopback (eager begin +
# abort, one-statement read with its client-link frame count,
# one-statement update on three replicas with its certifier-link frame
# count, under CSC and under ESC), and disk restart
# (checkpoint restore + WAL replay vs full history replay), and the
# stand-in DBMS alone on the TPC-W read statements that carry the
# tpcw-durable profile (join + GROUP BY, join + ORDER BY … LIMIT,
# ordered scan to a LIMIT, MAX of the key) plus one point read, at the
# default scale, and the two that read every order line above a fixed
# floor again after 2 000 runtime orders (the *Grown cases, the table a
# live run reads), and a title search that matches nothing (the index
# walk's worst case) and an author search that matches nothing (the
# join walk's), and one bulk load of each workload at its default
# scale on a fresh engine (the work LoadData runs on replica 0) and one
# engine built from a micro-loaded one's image (what LoadData then does
# for every other replica) and one whole micro cluster set-up (three
# replicas up on loopback, loaded and closed: the in-repo twin of the
# end-to-end benchmark's setup_s), and a
# 10 000-key B-tree built from ascending and from random keys (the
# index under every table; a bulk load inserts in key order), and a
# prepared point SELECT and point UPDATE run under the plan the
# statement keeps (the SQL share of every read). Results land
# in BENCH_hotpath.json (committed, so before/after numbers travel with
# the code); benchjson -require fails the run if any expected benchmark
# went missing. Override
# BENCHTIME for quicker smoke runs (CI uses 100ms).
BENCHTIME ?= 1s
HOTPATH_BENCH = BenchmarkRefreshApply|BenchmarkCertifyThroughput|BenchmarkHistoryLookup|BenchmarkWireRefreshStream|BenchmarkWirePartialSubscription|BenchmarkWireRoundTrip|BenchmarkTraceOverhead|BenchmarkRecovery|BenchmarkTPCWStatements|BenchmarkLoad|BenchmarkTreeSet|BenchmarkExecPrepared
HOTPATH_REQUIRE = BenchmarkRefreshApply/batched,BenchmarkRefreshApply/deep,BenchmarkCertifyThroughput/1shard,BenchmarkCertifyThroughput/4shard-disjoint,BenchmarkCertifyThroughput/4shard-crossmix,BenchmarkCertifyThroughput/4shard-conflicting,BenchmarkHistoryLookup/tail,BenchmarkWireRefreshStream,BenchmarkWirePartialSubscription/full,BenchmarkWirePartialSubscription/half,BenchmarkWirePartialSubscription/quarter,BenchmarkWireRoundTrip/begin-abort,BenchmarkWireRoundTrip/read-txn,BenchmarkWireRoundTrip/update-txn,BenchmarkWireRoundTrip/update-txn-esc,BenchmarkTraceOverhead/disabled,BenchmarkTraceOverhead/enabled,BenchmarkRecovery/restore,BenchmarkRecovery/fullhistory,BenchmarkTPCWStatements/BestSellers,BenchmarkTPCWStatements/BestSellersGrown,BenchmarkTPCWStatements/SearchAuthor,BenchmarkTPCWStatements/SearchAuthorNone,BenchmarkTPCWStatements/PromoItems,BenchmarkTPCWStatements/MaxOrderID,BenchmarkTPCWStatements/AdminRelated,BenchmarkTPCWStatements/AdminRelatedGrown,BenchmarkTPCWStatements/SearchTitle,BenchmarkTPCWStatements/SearchTitleNone,BenchmarkTPCWStatements/NewProducts,BenchmarkTPCWStatements/GetCustomerByID,BenchmarkLoad/micro,BenchmarkLoad/tpcw,BenchmarkLoad/copy,BenchmarkLoad/cluster,BenchmarkTreeSet/ascending,BenchmarkTreeSet/random,BenchmarkExecPrepared/point-select,BenchmarkExecPrepared/point-update
bench-hotpath:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem -benchtime $(BENCHTIME) \
		./internal/replica/ ./internal/certifier/ ./internal/wire/ ./internal/pstore/ ./internal/workload/tpcw/ ./internal/bench/ ./internal/btree/ ./internal/sql/ \
		| tee bench_output.txt
	$(GO) run ./cmd/benchjson -require '$(HOTPATH_REQUIRE)' < bench_output.txt > BENCH_hotpath.json
	@rm -f bench_output.txt
	@echo "wrote BENCH_hotpath.json"

# End-to-end benchmark smoke. benchmark/ is its own module, outside
# ./..., so this is where a wire or cluster API change that breaks it
# is seen before the benchmark driver sees it: vet, the instrument's own
# tests, and one tiny run of all four workloads through the correctness
# gate. It measures nothing.
bench-e2e-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	$(GO) run -C benchmark . -smoke

# Fuzz smoke: the parsers that face bytes off disk or the wire — the
# refresh frame and every other frame type of the wire codec, WAL frame
# replay (torn tails and bit rot), and checkpoint snapshot load — each
# long enough to shake out parser regressions without stalling CI; and
# the SQL executor against its reference evaluator, one random schema,
# data set and statement batch per seed. Override FUZZTIME for longer
# local runs.
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRefreshCodec -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzFrameCodec -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime $(FUZZTIME) ./internal/pstore/
	$(GO) test -run '^$$' -fuzz FuzzDifferentialSQL -fuzztime $(FUZZTIME) ./internal/sql/

# Full evaluation sweep (regenerates every figure; ~15 minutes).
sweep:
	$(GO) run ./cmd/sconrep-bench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/agents -mode SC -rounds 100
	$(GO) run ./examples/agents -mode FSC -rounds 100
	$(GO) run ./examples/bookstore -seconds 2

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
