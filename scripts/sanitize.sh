#!/usr/bin/env bash
# Build and run sanitizer sweeps.
#
#   scripts/sanitize.sh            # asan (default): full suite under ASan+UBSan
#   scripts/sanitize.sh asan [dir] # same, explicit
#   scripts/sanitize.sh tsan [dir] # ThreadSanitizer: build with
#                                  # -DNWHY_SANITIZE=thread, then run the
#                                  # differential driver and the frontier /
#                                  # nwpar suites directly (bounded seed
#                                  # budget — TSan is ~10x slower)
#   scripts/sanitize.sh ubsan [dir]# UBSan alone (-fno-sanitize-recover):
#                                  # the decoder / crafted-input gate — runs
#                                  # the I/O, snapshot, compressed-codec,
#                                  # relabel, shard and serve suites where a
#                                  # malformed file or wire frame must
#                                  # produce a structured error, never UB
#
# ASan/UBSan catches lifetime and indexing bugs; TSan catches data races in
# the frontier engine, bitmap conversions and scatter pipelines that review
# alone keeps missing.  `scripts/sanitize.sh tsan` is the pre-merge gate for
# any PR touching src/nwpar/ or src/hygra/; `ubsan` is the gate for PRs
# touching src/nwhy/io/ (shift/overflow/alignment bugs in varint decoders
# are exactly what UBSan traps).
set -euo pipefail

MODE=${1:-asan}

case "$MODE" in
  asan)
    BUILD=${2:-build-asan}
    cmake -B "$BUILD" -G Ninja -DNWHY_SANITIZE=address
    cmake --build "$BUILD"
    ctest --test-dir "$BUILD" --output-on-failure
    ;;
  tsan)
    BUILD=${2:-build-tsan}
    cmake -B "$BUILD" -G Ninja -DNWHY_SANITIZE=thread
    cmake --build "$BUILD"
    # Run the concurrency-heavy binaries directly: the differential driver
    # (every parallel family at 1/2/4/hw threads against the serial
    # oracles), the frontier engine suite, the nwpar runtime suite, the
    # parallel-ingest / snapshot suites (thread-sweeped parser merges), and
    # the relabel / sharded-traversal suites (parallel BFS-CC over mmap'd
    # shard windows).
    # halt_on_error makes the first race fail the gate; the reduced
    # NWHY_TEST_ITERS bounds wall time (override to go deeper).
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
    export NWHY_TEST_ITERS="${NWHY_TEST_ITERS:-6}"
    "$BUILD"/tests/test_nwpar
    "$BUILD"/tests/test_frontier
    "$BUILD"/tests/test_materialize
    "$BUILD"/tests/test_io
    "$BUILD"/tests/test_io_snapshot
    "$BUILD"/tests/test_compress
    "$BUILD"/tests/test_relabel
    "$BUILD"/tests/test_shard
    "$BUILD"/tests/test_differential
    "$BUILD"/tests/test_dynamic
    # The query server: worker pool + per-connection reader threads +
    # generation swaps, all racing by design — the whole suite runs under
    # TSan (client threads included).
    "$BUILD"/tests/test_serve
    # The analytics engines: batched Brandes (CAS level claims + sigma/delta
    # pulls) and the census with per-thread overlap accumulators and counters.
    "$BUILD"/tests/test_betweenness
    "$BUILD"/tests/test_motif
    # The nwgraph substrate, for the afforest stress test: concurrent
    # find_root path compression at 4 threads.
    "$BUILD"/tests/test_graph_algorithms
    # The engines' explicit-pool / stop-hook contract at 1/2/4 threads, and
    # the counter slots under two engines on their own one-context pools.
    "$BUILD"/tests/test_implicit
    "$BUILD"/tests/test_nwobs
    # HyperBFS and AdjoinBFS, both directions, on the shared level step
    # (CAS claims, per-thread emission, atomic bitmap pulls).
    "$BUILD"/tests/test_hyper_algorithms
    "$BUILD"/tests/test_cross_representation
    # Toplexes: the parallel dominance pass on hand-built duplicate,
    # nesting and partial-overlap cases plus the random-property sweep.
    "$BUILD"/tests/test_toplex
    ;;
  ubsan)
    BUILD=${2:-build-ubsan}
    cmake -B "$BUILD" -G Ninja -DNWHY_SANITIZE=undefined
    cmake --build "$BUILD"
    # The decode-path gate: every reader suite that feeds crafted bytes
    # into the parsers and varint decoders.  -fno-sanitize-recover means
    # any shift/overflow/misalignment aborts the run, so "rejected with
    # io_error" is proven to happen before anything undefined executes.
    "$BUILD"/tests/test_io
    "$BUILD"/tests/test_io_snapshot
    "$BUILD"/tests/test_compress
    "$BUILD"/tests/test_relabel
    "$BUILD"/tests/test_shard
    # Wire-protocol decoders: the crafted-frame suite must reject every
    # malformed frame with a structured status, never UB.
    "$BUILD"/tests/test_serve
    # Floating-point accumulation paths: sigma/delta division and the
    # sampling scale factor must stay defined on degenerate graphs.
    "$BUILD"/tests/test_betweenness
    "$BUILD"/tests/test_motif
    ;;
  *)
    echo "usage: scripts/sanitize.sh [asan|tsan|ubsan] [build-dir]" >&2
    exit 2
    ;;
esac
