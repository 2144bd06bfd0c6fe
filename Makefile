# Repro of "A Database Perspective on Lotus Domino/Notes" (SIGMOD 1999).
# Stdlib-only Go; no external tools required beyond the go toolchain.

GO ?= go

.PHONY: all build vet test race stress fuzz verify bench bench-backup bench-readpath bench-availability bench-writepath bench-placement bench-mesh bench-bulkread bench-deadline drift clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short -race stress pass over the concurrency regression tests: the
# versioned-write races (lost Seq updates, RawPut orphaning, replication
# history forks), the snapshot-scan/reader-writer latching tests, the
# group-commit races (64 committers vs checkpoint/compact/hot-backup and
# crash-durability of acked batches), the server shutdown races (Close
# vs in-flight dispatch vs hot-link ships, failover clients losing a mate
# mid-session), the mesh ship path (direct ships, ships to databases
# opened late, drops that kick catch-up rounds), and the multiplexed wire
# session (out-of-order responses, in-band cancel, concurrent batch puts on
# one client, hedge losers withdrawn without a redial).
stress:
	$(GO) test -race -count=2 \
		-run 'TestConcurrentUpdatesSeqMonotonic|TestRawPutDeleteNoOrphan|TestSaveHistoryConcurrentSeq|TestConcurrentReadersWriters|TestSnapshotScanSeesConsistentPrefix|TestScanDoesNotBlockWriter|TestGroupCommitRacesMaintenance|TestGroupCommitCrashKeepsAckedPuts|TestGroupCommitAmortization|TestCloseRacesInflightAndClusterPush|TestFailoverKillMidNotesSession|TestFailoverKillMidReplicationSession|TestConcurrentMovesExactlyOneWinner|TestUpdatePlacementExactlyOneWinnerPerGeneration|TestLiveMoveZeroLostAckedWrites|TestHotLinkFiresOnWrite|TestHotLinkShipsDatabaseOpenedAfterAdd|TestSelectiveHotLinkShipsStubs|TestShipFailureKicksCatchUpRound|TestClusterPushReplication|TestClusterDatabaseOpenedAfterEnable|TestClusterDropSignalsCatchUp|TestMuxOutOfOrderResponses|TestCancelReachesRunningHandler|TestConcurrentPutBatchOneClient|TestCancelWithdrawsRequestInBand|TestHedgedReadWinsOverSlowMate' \
		./internal/core ./internal/repl ./internal/store ./internal/server ./internal/place ./internal/dir ./internal/mesh ./internal/wire

# Short native-fuzz smoke over the three parsers that guard trust boundaries:
# the note codec (every WAL record and wire note passes through it), the
# frame reader (the first parse on every connection), and the formula
# compiler (mesh link selection formulas arrive over the admin wire ops and
# from topology files). Each target also keeps its corpus as seed tests
# under plain `go test`.
fuzz:
	$(GO) test ./internal/nsf -run '^$$' -fuzz FuzzDecodeNote -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReadFrame -fuzztime 15s
	$(GO) test ./internal/formula -run '^$$' -fuzz FuzzCompile -fuzztime 15s

# verify is the tier-1 gate: build, vet, full tests, the race detector, and
# the concurrency stress pass.
verify: build vet test race stress

# Write-path benchmark suite (changefeed: latency vs open consumers).
bench:
	$(GO) test -run '^$$' -bench BenchmarkW1 -benchtime 500x .

# Regenerate the backup/restore baseline (BENCH_backup.json): incremental
# vs full image cost, hot-backup put-latency interference, restore/PITR.
bench-backup:
	$(GO) run ./cmd/experiments -exp W3

# Regenerate the read-path baseline (BENCH_readpath.json): point-read
# throughput under a sustained writer and Put latency under back-to-back
# scans, RW-latch + note cache vs the serialized (seed) discipline.
bench-readpath:
	$(GO) run ./cmd/experiments -exp W4

# Regenerate the availability baseline (BENCH_availability.json): failover
# window and zero-lost-acked-writes on node kill, accepted-request latency
# under 2x overload with admission control on vs off.
bench-availability:
	$(GO) run ./cmd/experiments -exp W5

# Regenerate the write-path baseline (BENCH_writepath.json): W1 plus the W7
# group-commit scaling matrix (1..64 writers x SyncWAL x group commit).
bench-writepath:
	$(GO) run ./cmd/experiments -exp W1
	$(GO) run ./cmd/experiments -exp W7

# Regenerate the placement baseline (BENCH_placement.json): live-move
# latency under a streaming writer and dead-mate re-home times, both with
# the zero-lost-acked-writes audit.
bench-placement:
	$(GO) run ./cmd/experiments -exp W6

# Regenerate the bulk-read section of BENCH_readpath.json: W9 paginated
# view-open latency over a 5ms-RTT faultnet link vs the per-note baseline,
# and the frame-bound 200k-row stream with every response frame audited
# against wire.MaxFrame.
bench-bulkread:
	$(GO) run ./cmd/experiments -exp W9

# Regenerate the mesh baseline (BENCH_mesh.json): W8 epidemic-mesh
# time-to-convergence and per-link traffic for ring and hub-spoke under
# faultnet churn (drops, severs, a partitioned node, a killed mate), plus
# the selective-replication selection-stub audit.
bench-mesh:
	$(GO) run ./cmd/experiments -exp W8

# Regenerate the deadline baseline (BENCH_deadline.json): W10 stalled-mate
# read tail (flat-timeout failover vs budget+hedge), wasted work under
# overload with and without wire budgets, and the write-safety audit across
# deadline-expiry retries (zero acked writes lost or duplicated).
bench-deadline:
	$(GO) run ./cmd/experiments -exp W10

# Bench drift guard: re-measure W1/W7 (write path), the W6 re-home median,
# the W8 mesh ring time-to-convergence, the W9 paginated view-open probe,
# and the W10 hedged stalled-mate p99 at quick sizes; fail on regression
# beyond each probe's tolerance against the committed BENCH_writepath.json /
# BENCH_placement.json / BENCH_mesh.json / BENCH_readpath.json /
# BENCH_deadline.json.
drift:
	$(GO) run ./cmd/experiments -exp GUARD -quick

clean:
	$(GO) clean ./...
