GO ?= go

.PHONY: build test race vet lint cover bench-smoke fuzz-smoke stress replica-smoke seal-sweep history-bench failover-sweep

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checks every package under internal/ (all are expected to be
# race-clean), never from the test cache: this is CI's one run of the
# crash sweeps, the seal/equivalence harness and the replica TCP smoke.
race:
	$(GO) test -race -count=1 ./internal/...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (cmd/aionlint): vfs-seam, dropped
# durability errors, cancellation-blind loops, fsync-under-lock, plus the
# flow-aware layer — mixed atomics, lock-order cycles, string-flush
# ordering before WAL appends, leak-shaped goroutines. Fails on any
# unsuppressed finding; see README for the suppression syntax. The full
# -v report (findings, suppressions with reasons, per-analyzer timings)
# lands in aionlint.txt, the CI-visible artifact.
lint:
	$(GO) run ./cmd/aionlint -v > aionlint.txt 2>&1; s=$$?; cat aionlint.txt; exit $$s

# The whole test suite (`make test`) in atomic coverage mode: CI's one
# plain test run. The per-package breakdown (cover-packages.txt) is the
# CI-visible artifact; a failing test fails the target.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./... > cover-packages.txt 2>&1; s=$$?; cat cover-packages.txt; exit $$s
	awk '/coverage:/ {print $$2, $$5}' cover-packages.txt | sort
	$(GO) tool cover -func=coverage.out | tail -1

# One iteration of the read-path benchmarks: enough to catch regressions in
# the pipeline wiring without a full benchmark run.
# Read-path micro-benchmarks, the commit-throughput suite (group-commit
# pipeline vs the NoGroupCommit ablation), and a machine-readable
# BENCH_smoke.json snapshot at the repo root.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SnapshotLoad|GetGraph$$' -benchtime 1x ./internal/timestore/
	$(GO) test -run '^$$' -bench 'CommitThroughput' -benchtime 100x ./internal/hostdb/
	$(GO) run ./cmd/aion-bench -exp write -writeops 50 -committers 1,16 -json BENCH_smoke.json

# Concurrent serving-path stress under the race detector, run twice:
# mixed reader/writer bolt clients against an undersized admission limit,
# plus the engine-level writer/reader mix and the cancellation suite. (The
# replica package's single -race pass, sweeps included, is part of `race`.)
stress:
	$(GO) test -race -count=2 -run 'Stress|Concurrent|Cancel|Deadline|Overload|Drain|Panic|Replica' ./internal/bolt/ ./internal/cypher/ ./internal/hostdb/ ./internal/system/

# Replication smoke over real TCP: a primary and two follower servers, one
# follower's stream killed mid-flight (it must reconnect and re-converge),
# plus router fallback and dial-failure backoff. A verbose local subset of
# `race`; CI does not run it separately.
replica-smoke:
	$(GO) test -race -count=1 -run 'TestReplicationOverTCP|TestRouterFallback|TestFollowerReconnectBackoff' -v ./internal/replica/

# A short run of the decoder fuzzers: the one length+CRC frame decoder
# (wal.ScanFrames, which reads WAL, snapshot and delta-chain files alike,
# fed torn tails and corrupt lengths), the update decoder behind it
# (recovery feeds it torn log tails) and the delta-header decoder (chain
# recovery feeds it arbitrary .dsnap prefixes): long enough to exercise the
# mutators, short enough for CI.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScanFrames -fuzztime 15s ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzDecodeUpdates -fuzztime 30s ./internal/enc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeDelta -fuzztime 15s ./internal/enc/

# The failover gate: the kill/partition × protocol-point promotion sweep
# plus the seeded replication chaos soak, across a bounded seed set under
# the race detector. Per-seed verbose results accumulate in
# FAILOVER_sweep.txt (the CI-visible artifact); any failing seed fails
# the target with the transcript printed.
FAILOVER_SEEDS ?= 1 7 13
failover-sweep:
	@: > FAILOVER_sweep.txt
	@set -e; for s in $(FAILOVER_SEEDS); do \
		echo "== failover sweep, seed $$s =="; \
		echo "== seed $$s ==" >> FAILOVER_sweep.txt; \
		$(GO) test -race -count=1 -v -run 'TestFailoverSweep|TestReplicationChaosSeeded' \
			./internal/replica/ -failover.seed=$$s >> FAILOVER_sweep.txt 2>&1 \
			|| { tail -40 FAILOVER_sweep.txt; exit 1; }; \
	done
	@grep -c '^=== RUN' FAILOVER_sweep.txt | xargs -I{} echo "failover sweep: {} scenario runs, all passed (see FAILOVER_sweep.txt)"

# The partitioned-history gate: the seal crash sweeps and the cross-store
# equivalence harness (partitioned vs monolithic, byte-identical results)
# under the race detector, then history-bench. CI runs the two test lines
# as part of `race` and calls history-bench on its own.
seal-sweep:
	$(GO) test -race -count=1 -run 'TestCrashSweepSeal|TestRecoveryDropsOrphanDeltas' ./internal/timestore/
	$(GO) test -race -count=1 ./internal/tstest/
	$(MAKE) history-bench

# The history-depth benchmark with its machine-readable artifact, compared
# (informationally) against the checked-in baseline.
history-bench:
	$(GO) run ./cmd/aion-bench -exp history -scale 500 -globalops 12 -json BENCH_seal.json -baseline BENCH_baseline.json
