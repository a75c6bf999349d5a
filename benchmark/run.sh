#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                         every workload, every metric (= run)
#   benchmark/run.sh run --seed 7 --reps 3
#   benchmark/run.sh compare a.json b.json
#   benchmark/run.sh --workload farm-wide --seed 1 --seconds 12 --trace 0
#                                            (what BENCHMARK.json's driver calls)
#
# Builds the benchmark package (and, through its path dependencies, the
# crates) in release mode, offline, into CARGO_TARGET_DIR if the caller set
# one and into benchmark/target otherwise, then runs the binary. Nothing is
# read or written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export TAOPT_BENCH_OUT="$here/out"

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/taopt-benchmark" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release/taopt-benchmark" ;;
esac
exec "$bin" "$@"
