#!/bin/sh
# Builds the benchmark and the couplink-node binary its socket workloads
# spawn, then runs the benchmark with this script's arguments. Run from
# the repository root; build messages go to standard error.
set -e
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/couplink-perf" "$@"
