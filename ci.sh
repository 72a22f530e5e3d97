#!/usr/bin/env bash
# Repository CI gate. Run before every push:
#
#   ./ci.sh
#
# Thirteen stages, all required:
#   1. formatting      (cargo fmt --check)
#   2. lints           (cargo clippy, warnings are errors)
#   3. tier-1 tests    (release build + full test suite)
#   4. simtest         (seeded simulation corpus + oracle mutation smoke)
#   5. chaos-crash     (fixed-seed simtest sweep with forced permanent
#                       faults — 20% message loss plus a rep crash with
#                       restart/failover — on both runtimes)
#   6. stress          (concurrency stress sweep: every program at the
#                       process ceiling, zero compute skew — the coalesced
#                       sharded control plane under maximum pressure)
#   7. bench smoke     (tiny-size benchmark report, schema-validated and
#                       gated against baselines/BENCH_baseline_smoke.json;
#                       plus a negative test proving the gate catches an
#                       injected slowdown)
#   8. scale smoke     (threaded weak/strong scaling sweep with a
#                       per-iteration wall-clock budget; plus a negative
#                       test proving the throughput gate catches an
#                       injected stall)
#   9. scale ranks     (hierarchical collective sweep at 32/64/128 ranks
#                       per program on the threaded fabric: rep-origin
#                       control messages per import must stay within the
#                       k*ceil(log_k N) + 2k O(log N) budget and the tree
#                       conservation laws must hold exactly; plus a
#                       negative test proving the gate rejects the legacy
#                       flat O(N) fan-out)
#  10. multi-session   (16 sessions multiplexed on the pooled executor
#                       under the same wall budget: pooled must beat
#                       one-worker-per-task by 1.5x aggregate imports/sec
#                       and schedule sessions fairly; plus a negative test
#                       proving the starvation check catches a deliberately
#                       unfair scheduler)
#  11. socket           (fixed-seed corpus on the socket runtime: every
#                       program its own OS process on loopback UDS, all
#                       three runtimes must agree on matches and protocol
#                       counters; a forced-fault chaos sweep; one TCP
#                       smoke seed; plus a negative test proving the
#                       liveness oracle catches a codec that silently
#                       drops collective-answer frames)
#  12. durable          (kill-and-restart chaos over loopback UDS: even
#                       seeds SIGKILL a node mid-run and restart it from
#                       its write-ahead journal, odd seeds sever a mesh
#                       link and demand re-dial + unacked-frame replay;
#                       every run must recover with the fault metered;
#                       plus a negative test proving a bit-flipped journal
#                       is refused at restart, never silently replayed)
#  13. net smoke        (socket data-plane sweep over loopback UDS + TCP
#                       through the real couplink-node mesh: payload
#                       throughput, writev coalescing and tx/rx frame
#                       conservation, gated against
#                       baselines/BENCH_baseline_net.json, a 2x legacy
#                       speedup floor and a 0.9 tx-buffer-pool hit floor
#                       on the 2 MiB UDS point; plus a negative test
#                       proving the syscalls-per-frame gate rejects the
#                       legacy per-frame write path)
#
# Nightly-only extras (run when CI_NIGHTLY=1, skipped gracefully otherwise):
#   - deep simtest sweep and a deeper DES-vs-threaded property sweep
#   - ThreadSanitizer pass over the threaded runtime (needs a nightly
#     toolchain with rust-src; skipped with a notice if unavailable)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== simtest: seed corpus + mutation smoke (~30s budget)"
cargo run --release -q -p couplink-simtest -- --seeds 60
cargo run --release -q -p couplink-simtest -- --mutate

echo "== chaos-crash: forced loss + rep crash/failover on both runtimes"
cargo run --release -q -p couplink-simtest -- --faults --seeds 12

echo "== stress: process-ceiling concurrency sweep, fault-free"
cargo run --release -q -p couplink-simtest -- --stress --seeds 12

echo "== bench smoke: report gate against committed baseline"
cargo run --release -q -p couplink-bench --bin report -- \
    --smoke --out results/BENCH_smoke.json \
    --check baselines/BENCH_baseline_smoke.json

echo "== bench smoke: injected slowdown must FAIL the gate"
if cargo run --release -q -p couplink-bench --bin report -- \
    --smoke --mutate --out results/BENCH_smoke_mutated.json \
    --check baselines/BENCH_baseline_smoke.json >/dev/null 2>&1; then
    echo "ERROR: regression gate passed a mutated (8x slower memcpy) run" >&2
    exit 1
fi
echo "   (gate correctly rejected the mutated run)"

echo "== scale smoke: threaded scaling sweep under the throughput budget"
cargo run --release -q -p couplink-bench --bin scale -- \
    --out results/BENCH_scale_smoke.json

echo "== scale smoke: injected stall must FAIL the throughput gate"
if cargo run --release -q -p couplink-bench --bin scale -- \
    --mutate --out results/BENCH_scale_smoke_mutated.json >/dev/null 2>&1; then
    echo "ERROR: throughput gate passed a mutated (stalled-importer) run" >&2
    exit 1
fi
echo "   (gate correctly rejected the stalled run)"

echo "== scale ranks: hierarchical collectives under the O(log N) ctrl gate"
cargo run --release -q -p couplink-bench --bin scale -- \
    --ranks 32,64,128 --out results/BENCH_scale_ranks.json

echo "== scale ranks: flat fan-out must FAIL the control-scaling gate"
if cargo run --release -q -p couplink-bench --bin scale -- \
    --ranks 32,64 --mutate \
    --out results/BENCH_scale_ranks_mutated.json >/dev/null 2>&1; then
    echo "ERROR: control-scaling gate passed a flat O(N) rep fan-out" >&2
    exit 1
fi
echo "   (gate correctly rejected the flat fan-out)"

echo "== multi-session smoke: 16 sessions on the pooled executor"
cargo run --release -q -p couplink-bench --bin scale -- \
    --sessions 16 --out results/BENCH_scale_sessions.json

echo "== multi-session smoke: unfair scheduler must FAIL the starvation check"
if cargo run --release -q -p couplink-bench --bin scale -- \
    --sessions 16 --mutate \
    --out results/BENCH_scale_sessions_mutated.json >/dev/null 2>&1; then
    echo "ERROR: starvation check passed an always-poll-session-0 scheduler" >&2
    exit 1
fi
echo "   (starvation check correctly rejected the unfair scheduler)"

echo "== socket: fixed-seed UDS corpus across all three runtimes"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --seeds 8

echo "== socket: forced-fault chaos sweep over loopback UDS"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --faults --seeds 4

echo "== socket: TCP loopback smoke seed"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket tcp --seeds 1

echo "== socket: dropped collective answers must trip the liveness oracle"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --drop-answers

echo "== durable: kill-restart-from-journal / link-sever chaos over UDS"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --net-faults --seeds 4

echo "== durable: corrupted journal must be refused at restart"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-simtest -- --socket uds --corrupt-wal

echo "== net smoke: socket data-plane sweep under the coalescing, speedup and pool gates"
COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-bench --bin net -- \
    --smoke --out results/BENCH_net_smoke.json \
    --check baselines/BENCH_baseline_net.json

echo "== net smoke: legacy per-frame writes must FAIL the coalescing gate"
if COUPLINK_NODE_BIN=target/release/couplink-node \
    cargo run --release -q -p couplink-bench --bin net -- \
    --smoke --mutate --out results/BENCH_net_smoke_mutated.json \
    >/dev/null 2>&1; then
    echo "ERROR: coalescing gate passed a per-frame-write (legacy codec) run" >&2
    exit 1
fi
echo "   (gate correctly rejected the per-frame write path)"

if [[ "${CI_NIGHTLY:-0}" == "1" ]]; then
    echo "== nightly: deep simtest sweep"
    cargo run --release -q -p couplink-simtest -- --seeds 500
    echo "== nightly: deep chaos-crash sweep"
    cargo run --release -q -p couplink-simtest -- --faults --seeds 100
    echo "== nightly: deep cross-runtime property sweep"
    SIMTEST_CASES=100 cargo test -q -p couplink-runtime --test prop_des

    echo "== nightly: ThreadSanitizer over the threaded runtime"
    # TSan needs a nightly toolchain with the rust-src component (for
    # -Zbuild-std); skip with a notice rather than fail when absent.
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null \
           | grep -q 'rust-src.*(installed)'; then
        host="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std --target "$host" \
            -p couplink-runtime --lib threaded
    else
        echo "   (skipped: no nightly toolchain with rust-src installed)"
    fi
fi

echo "CI OK"
